package engine

import (
	"expvar"

	"salsa/internal/metrics"
)

// Metrics holds the engine's process-wide telemetry counters, so a
// serving layer (internal/service, cmd/salsad) can export them without
// holding a reference to any particular engine run. Each counter is
// also published to expvar under its own name.
//
// The counters are cumulative over the process lifetime and count
// *canonical* search effort (the same numbers Stats reports): trial
// and move counters are folded in on the reduction goroutine as each
// job resolves, so the totals are independent of worker count and
// completion order, exactly like Stats.
var Metrics = metrics.NewRegistry()

var (
	statRuns             = counter("salsa_engine_runs_total")
	statJobs             = counter("salsa_engine_jobs_total")
	statWorkers          = counter("salsa_engine_workers_started_total")
	statTrials           = counter("salsa_engine_trials_total")
	statMovesTried       = counter("salsa_engine_moves_tried_total")
	statMovesAccepted    = counter("salsa_engine_moves_accepted_total")
	statIncumbentUpdates = counter("salsa_engine_incumbent_updates_total")
	statJobsPruned       = counter("salsa_engine_jobs_pruned_total")
	statJobsCancelled    = counter("salsa_engine_jobs_cancelled_total")
	statJobsFailed       = counter("salsa_engine_jobs_failed_total")
)

// counter registers one engine counter and publishes it to expvar.
func counter(name string) *metrics.Int {
	c := Metrics.Counter(name, "Engine counter (process-wide, see internal/engine).")
	expvar.Publish(name, c)
	return c
}
