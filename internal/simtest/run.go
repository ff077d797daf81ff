package simtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/client"
	"salsa/internal/clock"
	"salsa/internal/service"
)

// Options sizes one scenario.
type Options struct {
	// Clients and OpsPerClient size the scripted load. Zero selects
	// 4 clients × 5 ops.
	Clients      int
	OpsPerClient int
	// Rates is the fault mix (zero value: fault-free).
	Rates Rates
}

// Event is one scripted operation's outcome, as the client saw it.
// Events marshal one-per-line into the JSONL artifact a failing seed
// leaves behind.
type Event struct {
	Seed     int64  `json:"seed"`
	Client   int    `json:"client"`
	Op       int    `json:"op"`
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	OK       bool   `json:"ok"`
	Status   int    `json:"status,omitempty"`
	Partial  bool   `json:"partial,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`
	// VirtualMS is how much simulated time the op consumed.
	VirtualMS int64 `json:"virtual_ms"`
}

// RunResult is everything one scenario produced. Violations empty
// means every invariant held.
type RunResult struct {
	Seed int64
	// Scenario names the harness that produced this result ("chaos"
	// when empty); it keys the failure artifact's filename so different
	// scenarios failing on one seed don't clobber each other.
	Scenario   string
	Events     []Event
	Metrics    map[string]int64
	Injected   map[string]int64
	Violations []string
}

// Run executes one chaos scenario: a salsad server under the seeded
// fault plane and virtual clock, driven by BuildScripts(seed) clients,
// followed by a convergence phase and a drain. It checks the global
// invariants and returns what happened; it never calls testing.T, so
// callers decide how to report.
//
// The invariants, roughly in the order they are enforced:
//
//   - a scripted op either succeeds with HTTP 200, or — short-deadline
//     ops only — fails rooted in HTTP 408;
//   - every complete (non-partial) 200 body is byte-identical to the
//     canonical result of a direct salsa.Execute of the same request,
//     whether it came from an engine run, the cache, or a shared
//     singleflight outcome;
//   - a partial result is never served from the cache;
//   - after the chaos phase, one clean request per workload converges
//     to the canonical result (the service heals);
//   - drain completes without stranding work, and afterwards the
//     in-flight gauges are zero and every submitted job is finished;
//   - the server itself never wrote a 5xx (injected ones bypass it and
//     carry FaultHeader);
//   - the metrics reconcile: every cache miss became exactly one
//     singleflight lead, share, or abandonment, and every request got
//     exactly one response.
func Run(seed int64, opts Options) *RunResult {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.OpsPerClient <= 0 {
		opts.OpsPerClient = 5
	}
	rr := &RunResult{Seed: seed}

	clk := clock.NewVirtual()
	faults := NewFaults(seed, opts.Rates, clk)
	srv := service.New(service.Config{
		MaxConcurrent:  2,
		MaxQueue:       16,
		MaxJobs:        256,
		DefaultTimeout: time.Minute,
		MaxTimeout:     2 * time.Minute,
		Hooks:          faults.ServiceHooks(),
	})
	ts := httptest.NewServer(faults.Middleware(srv.Handler()))
	defer ts.Close()
	stopPump := clk.AutoAdvance(500 * time.Microsecond)
	defer stopPump()

	newClient := func(jitterSeed int64) *client.Client {
		return client.New(client.Config{
			BaseURL:      ts.URL,
			Doer:         ts.Client(),
			Clock:        clk,
			Seed:         jitterSeed,
			MaxAttempts:  10,
			BaseBackoff:  20 * time.Millisecond,
			MaxBackoff:   500 * time.Millisecond,
			PollInterval: 10 * time.Millisecond,
		})
	}

	// Chaos phase: every scripted client runs concurrently.
	scripts := BuildScripts(seed, opts.Clients, opts.OpsPerClient)
	type clientOut struct {
		events     []Event
		violations []string
	}
	outs := make([]clientOut, len(scripts))
	var wg sync.WaitGroup
	for i, sc := range scripts {
		wg.Add(1)
		go func(i int, sc Script) {
			defer wg.Done()
			cl := newClient(sc.Seed)
			for opIdx, op := range sc.Ops {
				ev, bad := runOp(clk, cl, seed, sc.Client, opIdx, op)
				outs[i].events = append(outs[i].events, ev)
				outs[i].violations = append(outs[i].violations, bad...)
			}
		}(i, sc)
	}
	wg.Wait()
	used := map[string]bool{}
	for i := range outs {
		rr.Events = append(rr.Events, outs[i].events...)
		rr.Violations = append(rr.Violations, outs[i].violations...)
	}
	for _, sc := range scripts {
		for _, op := range sc.Ops {
			used[op.Workload] = true
		}
	}

	// Convergence phase: the service must heal — one clean request per
	// workload yields the canonical complete result. Injected stalls
	// can still legitimately truncate a run (partials are not cached),
	// so reissue until a complete result arrives, within a small budget.
	workloadsUsed := make([]string, 0, len(used))
	for w := range used {
		workloadsUsed = append(workloadsUsed, w)
	}
	sort.Strings(workloadsUsed)
	conv := newClient(seed ^ 0x5a5a)
	for _, w := range workloadsUsed {
		converged := false
		for try := 0; try < 5 && !converged; try++ {
			res, err := conv.Do(context.Background(), request(Op{Kind: OpSync, Workload: w}))
			if err != nil {
				rr.Violations = append(rr.Violations,
					fmt.Sprintf("convergence: %s try %d failed: %v", w, try, err))
				break
			}
			if res.Result.Partial {
				continue
			}
			converged = true
			if !bytes.Equal(canonicalJSON(res.Body), expectedBody(w)) {
				rr.Violations = append(rr.Violations,
					fmt.Sprintf("convergence: %s result diverges from direct salsa.Execute", w))
			}
		}
		if !converged {
			rr.Violations = append(rr.Violations,
				fmt.Sprintf("convergence: %s never produced a complete result", w))
		}
	}

	// Drain: nothing may be stranded.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		rr.Violations = append(rr.Violations, "drain: "+err.Error())
	}

	m := srv.MetricsSnapshot()
	rr.Metrics = m
	rr.Injected = faults.Injected()
	if m["queue_depth"] != 0 || m["active_runs"] != 0 {
		rr.Violations = append(rr.Violations,
			fmt.Sprintf("gauges nonzero after drain: queue_depth=%d active_runs=%d",
				m["queue_depth"], m["active_runs"]))
	}
	if m["jobs_submitted_total"] != m["jobs_finished_total"] {
		rr.Violations = append(rr.Violations,
			fmt.Sprintf("jobs stranded: submitted=%d finished=%d",
				m["jobs_submitted_total"], m["jobs_finished_total"]))
	}
	if leads, shares, abandoned, misses := m["singleflight_leader_total"], m["singleflight_shared_total"],
		m["singleflight_abandoned_total"], m["cache_misses_total"]; misses != leads+shares+abandoned {
		rr.Violations = append(rr.Violations,
			fmt.Sprintf("flight accounting broken: misses=%d != leads=%d + shared=%d + abandoned=%d",
				misses, leads, shares, abandoned))
	}
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var responses int64
	for _, key := range keys {
		code, isResp := responseCode(key)
		if !isResp {
			continue
		}
		responses += m[key]
		if code >= 500 && m[key] != 0 {
			rr.Violations = append(rr.Violations,
				fmt.Sprintf("server wrote %d responses with status %d (5xx must only come injected)", m[key], code))
		}
	}
	if responses != m["http_requests_total"] {
		rr.Violations = append(rr.Violations,
			fmt.Sprintf("response accounting broken: %d responses for %d requests",
				responses, m["http_requests_total"]))
	}
	return rr
}

// runOp executes one scripted op and classifies the outcome.
func runOp(clk clock.Clock, cl *client.Client, seed int64, clientID, opIdx int, op Op) (Event, []string) {
	ev := Event{
		Seed: seed, Client: clientID, Op: opIdx,
		Kind: op.Kind.String(), Workload: op.Workload,
	}
	start := clk.Now()
	var res *client.Result
	var err error
	if op.Kind == OpAsync {
		res, err = cl.DoJob(context.Background(), request(op))
	} else {
		res, err = cl.Do(context.Background(), request(op))
	}
	ev.VirtualMS = clk.Since(start).Milliseconds()
	var bad []string
	if err != nil {
		ev.Err = err.Error()
		var herr *client.HTTPError
		if errors.As(err, &herr) {
			ev.Status = herr.Status
		}
		// Only a short-deadline op may fail, and only because its own
		// deadline won: the failure chain must root in HTTP 408.
		if op.Kind != OpShort || ev.Status != 408 {
			bad = append(bad, fmt.Sprintf("client %d op %d (%s %s): disallowed failure: %v",
				clientID, opIdx, ev.Kind, op.Workload, err))
		}
		return ev, bad
	}
	ev.OK = true
	ev.Status = 200
	ev.Partial = res.Result.Partial
	ev.CacheHit = res.CacheHit
	ev.Attempts = res.Attempts
	if res.CacheHit && res.Result.Partial {
		bad = append(bad, fmt.Sprintf("client %d op %d (%s): partial result served from cache",
			clientID, opIdx, op.Workload))
	}
	// A generous-deadline op can still legitimately observe a partial:
	// deadlines are excluded from the singleflight key, so a
	// short-deadline leader's truncated outcome is shared with any
	// follower. What matters is that partials never enter the cache
	// (checked above) and that complete results are canonical (below).
	if !res.Result.Partial && !bytes.Equal(canonicalJSON(res.Body), expectedBody(op.Workload)) {
		bad = append(bad, fmt.Sprintf("client %d op %d (%s %s): body diverges from direct salsa.Execute",
			clientID, opIdx, ev.Kind, op.Workload))
	}
	return ev, bad
}

// expectedBody returns the canonical (JSON-compacted) response body
// for a workload's scripted request: exactly what the service serves,
// computed by a direct salsa.Execute. Memoized process-wide — the
// canonical result is seed-independent, that being the point.
var (
	expectMu   sync.Mutex
	expectDocs = map[string][]byte{}
)

func expectedBody(workload string) []byte {
	expectMu.Lock()
	defer expectMu.Unlock()
	if doc, ok := expectDocs[workload]; ok {
		return doc
	}
	// Mirror the service: parse the same wire graph, normalize the
	// same request, build the same result document.
	g, err := cdfg.ParseJSON(graphJSON(workload))
	if err != nil {
		panic("simtest: reparsing " + workload + ": " + err.Error())
	}
	req := salsa.Request{Graph: g, Mode: "salsa", Seed: 1, Restarts: 1}.Normalize()
	des, res, stats, err := salsa.Execute(context.Background(), req)
	if err != nil {
		panic("simtest: direct execute of " + workload + ": " + err.Error())
	}
	rj := salsa.BuildResultJSON(g, des.Steps(), req.Mode, req.Seed, req.Restarts, res, stats)
	body, err := json.Marshal(rj)
	if err != nil {
		panic("simtest: marshaling expected result: " + err.Error())
	}
	doc := canonicalJSON(append(body, '\n'))
	expectDocs[workload] = doc
	return doc
}

// canonicalJSON compacts b so documents differing only in whitespace
// (the job-status path re-marshals results) compare equal.
func canonicalJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// responseCode extracts NNN from a "http_responses_total_NNN" metrics key.
func responseCode(key string) (int, bool) {
	var code int
	if _, err := fmt.Sscanf(key, "http_responses_total_%d", &code); err != nil {
		return 0, false
	}
	return code, true
}
