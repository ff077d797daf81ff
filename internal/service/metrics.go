package service

import (
	"expvar"
	"sync"
	"sync/atomic"

	"salsa/internal/metrics"
)

// serverMetrics holds the service's metric families. newServerMetrics
// registers each once, with its help text, in exposition order;
// /metrics writes reg followed by the engine's process-wide counters,
// and MetricsSnapshot and the salsa_service expvar derive their flat
// map from reg.
type serverMetrics struct {
	reg       *metrics.Registry
	responses *metrics.Vec[int]
	latency   *metrics.Histogram

	httpRequests, allocRequests, cacheHits, cacheMisses            *metrics.Int
	flightLeads, flightShared, flightAbandoned, engineRuns         *metrics.Int
	partials, timeoutsEmpty, queueRejected, queueDepth, activeRuns *metrics.Int
	jobsSubmitted, jobsFinished, jobsRecovered, journalErrors      *metrics.Int
}

func newServerMetrics(cache *ResultCache) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{reg: r}
	m.httpRequests = r.Counter("salsa_http_requests_total", "HTTP requests received.")
	m.responses = metrics.CounterVec[int](r, "salsa_http_responses_total", "HTTP responses by status code.", "code")
	m.allocRequests = r.Counter("salsa_allocate_requests_total", "Allocation requests (sync and async).")
	m.cacheHits = r.Counter("salsa_cache_hits_total", "Result-cache hits.")
	m.cacheMisses = r.Counter("salsa_cache_misses_total", "Result-cache misses.")
	r.GaugeFunc("salsa_cache_entries", "Result-cache resident entries.", func() int64 { return int64(cache.Len()) })
	m.flightLeads = r.Counter("salsa_singleflight_leader_total", "Requests that led an engine run.")
	m.flightShared = r.Counter("salsa_singleflight_shared_total", "Requests deduplicated onto an in-flight identical run.")
	m.flightAbandoned = r.Counter("salsa_singleflight_abandoned_total", "Parked singleflight waiters whose request context expired before the leader finished.")
	m.engineRuns = r.Counter("salsa_engine_invocations_total", "Engine runs this server performed.")
	m.partials = r.Counter("salsa_partial_results_total", "Deadline-truncated results served (HTTP 200, partial).")
	m.timeoutsEmpty = r.Counter("salsa_deadline_empty_total", "Deadlines that fired before any allocation existed (HTTP 408).")
	m.queueRejected = r.Counter("salsa_queue_rejected_total", "Requests rejected by admission control (HTTP 429).")
	m.queueDepth = r.Gauge("salsa_queue_depth", "Requests admitted and waiting for an engine slot.")
	m.activeRuns = r.Gauge("salsa_active_runs", "Engine runs currently executing.")
	m.jobsSubmitted = r.Counter("salsa_jobs_submitted_total", "Async jobs accepted.")
	m.jobsFinished = r.Counter("salsa_jobs_finished_total", "Async jobs completed (any terminal state).")
	m.jobsRecovered = r.Counter("salsa_jobs_recovered_total", "Async jobs replayed from the write-ahead journal at boot.")
	m.journalErrors = r.Counter("salsa_journal_errors_total", "Journal appends that failed or replayed entries that were dropped.")
	m.latency = r.Histogram("salsa_request_duration_ms", "HTTP request latency.",
		1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000)
	return m
}

// expvar publication: one process-wide "salsa_service" Func snapshots
// the most recently constructed server (expvar forbids re-publishing a
// name, and tests construct many servers per process).
var (
	expvarOnce   sync.Once
	expvarServer atomic.Pointer[Server]
)

func publishExpvar(s *Server) {
	expvarServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("salsa_service", expvar.Func(func() any {
			srv := expvarServer.Load()
			if srv == nil {
				return nil
			}
			return srv.MetricsSnapshot()
		}))
	})
}
