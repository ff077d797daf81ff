package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/engine"
	"salsa/internal/service"
	"salsa/internal/workloads"
)

// input is one graph a workload allocates, in the JSON form a user
// hands to `salsa -cdfg` or salsad.
type input struct {
	name string
	data []byte
}

// libWorkload is a closed-loop workload with one client calling the
// library directly, the way `salsa -json` does: cdfg.ParseJSON, then
// salsa.Execute, then BuildResultJSON + json.Marshal, then
// Design.Verify.
type libWorkload struct {
	name     string
	load     func() ([]input, error)
	restarts int
	workers  int
	// deadline, when positive, adds one request per graph with this
	// engine deadline to the first pass.
	deadline time.Duration
	// repeats, when set, is how many allocations each graph gets per
	// pass (by index; default one), to even out how many samples each
	// graph's median rests on.
	repeats []int
	// window is how many leading passes mux_sum and the engine counts
	// are summed over, a result set fixed in advance; the loop runs at
	// least that many. Zero means every pass.
	window int
	// passTime, when set, fixes the work instead of the time: the run
	// makes one pass per passTime of its length, with request seeds
	// that do not depend on the workload seed.
	passTime time.Duration
}

// corpusGraphs reads the paper's graphs from testdata, sorted by name.
func corpusGraphs() ([]input, error) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no testdata/*.json graphs (run from the repository root)")
	}
	sort.Strings(paths)
	var in []input
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		in = append(in, input{name: filepath.Base(p[:len(p)-len(".json")]), data: data})
	}
	return in, nil
}

// scaleGraphSeed fixes the synthetic graphs. Graph-to-graph run time
// at 200 ops varies about fourfold between generator seeds, more than
// any bound a run-to-run comparison could hold, so the workload seed
// varies the request seeds instead. Seed 7 is the graph the anytime
// defect was diagnosed on.
const scaleGraphSeed = 7

var scaleSizes = []int{100, 200}

func syntheticGraphs() ([]input, error) {
	var in []input
	for _, n := range scaleSizes {
		g := workloads.Synthetic(n, scaleGraphSeed)
		data, err := g.MarshalJSON()
		if err != nil {
			return nil, err
		}
		in = append(in, input{name: fmt.Sprintf("synth%d", n), data: data})
	}
	return in, nil
}

// requestSeed is the request seed of repeat r of pass p in a run with
// workload seed ws: every allocation gets a fresh seed, so a graph's
// median time averages over search trajectories.
func requestSeed(ws int64, pass, r int) int64 { return ws*100000 + int64(pass)*4 + int64(r) + 1 }

// warmSeed is the request seed of every set-up repetition. It does not
// depend on the workload seed, so set-up does the same work in every
// repetition of every run.
const warmSeed = 1

// opResult is the outcome of one library operation.
type opResult struct {
	graph    int
	pass     int
	seed     int64
	deadline bool
	wall     time.Duration
	// cpu is the process's CPU time over the operation, and cpuOutside
	// the calling thread's CPU time outside salsa.Execute (decode,
	// encode, verify): these short steps are timed on the thread's own
	// clock, so a collection running on another thread does not count.
	cpu, cpuOutside time.Duration
	// ref is the CPU time of a reference millisecond while it ran.
	ref float64
	// engine is the portfolio engine's own wall time (Stats.Wall), and
	// eff the share of its workers' time spent in jobs.
	engine time.Duration
	eff    float64
	// cancelToReturn is how long the call took to return after its
	// deadline passed (deadline requests only).
	cancelToReturn time.Duration
	body           []byte
	mux            int
	counts         engineCounts
	// fail is empty on success, otherwise the failure class.
	fail string
	err  error
}

// engineCounts are the deterministic effort counts of one portfolio
// run, summed over its jobs.
type engineCounts struct {
	Trials, MovesTried, MovesAccepted, Pruned int
}

func (c *engineCounts) add(o engineCounts) {
	c.Trials += o.Trials
	c.MovesTried += o.MovesTried
	c.MovesAccepted += o.MovesAccepted
	c.Pruned += o.Pruned
}

func countsOf(st *salsa.Stats) engineCounts {
	if st == nil {
		return engineCounts{}
	}
	return engineCounts{Trials: st.Trials, MovesTried: st.MovesTried, MovesAccepted: st.MovesAccepted, Pruned: st.Pruned}
}

// engineHooks timestamps each portfolio job's start and its last trial
// boundary through the engine's telemetry callbacks, which only record
// and never steer the search. With Stats.PerJob durations they split
// every job into its search (start to last trial end) and its finalize
// step (last trial end to return: polish and mux merge).
type engineHooks struct {
	mu        sync.Mutex
	started   map[int]time.Time
	lastTrial map[int]time.Time
}

func newEngineHooks() *engineHooks {
	return &engineHooks{started: map[int]time.Time{}, lastTrial: map[int]time.Time{}}
}

func (h *engineHooks) event(ev engine.Event) {
	if ev.Kind != engine.EventJobStarted {
		return
	}
	now := time.Now()
	h.mu.Lock()
	h.started[ev.Job] = now
	h.mu.Unlock()
}

func (h *engineHooks) trial(job, _ int) {
	now := time.Now()
	h.mu.Lock()
	h.lastTrial[job] = now
	h.mu.Unlock()
}

// record adds each job's core.search and core.finalize spans under the
// engine span. cut is the deadline, if any: a job cancelled before its
// first trial boundary searched until the cut.
func (h *engineHooks) record(tr *Tracer, parent int, st *salsa.Stats, cut time.Time) {
	if h == nil || st == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, jr := range st.PerJob {
		start, ok := h.started[i]
		if !ok {
			continue
		}
		end := start.Add(jr.Duration)
		last, ok := h.lastTrial[i]
		if !ok {
			last = start
			if !cut.IsZero() && cut.Before(end) {
				last = cut
			}
		}
		tr.Record("core.search", jr.Label, parent, start, last)
		tr.Record("core.finalize", jr.Label, parent, last, end)
	}
}

// allocate runs one operation the way `salsa -json` does and checks
// its output. label names the root span; deadline, when positive, is
// the engine deadline of a request that expects a partial result.
func allocate(in input, gi int, seed int64, restarts, workers int, deadline time.Duration, tr *Tracer, label string) opResult {
	r := opResult{graph: gi, seed: seed, deadline: deadline > 0}
	runtime.LockOSThread() // for the thread clock of cpuOutside
	defer runtime.UnlockOSThread()
	start, cpu0, th0, mark := time.Now(), cpuTime(), cpuClock(clockThreadCPU), cal.mark()
	root := tr.Begin("op", label, 0)
	fail := func(class string, err error) opResult {
		tr.End(root)
		r.fail, r.err = class, err
		return r
	}

	g, err := cdfg.ParseJSON(in.data)
	tr.Record("cdfg.decode", "", root, start, time.Now())
	decodeCPU := cpuClock(clockThreadCPU) - th0
	if err != nil {
		return fail("error", err)
	}
	req := salsa.Request{Graph: g, Seed: seed, Restarts: restarts}.Normalize()
	req.Engine.Workers = workers
	var hooks *engineHooks
	if tr != nil {
		hooks = newEngineHooks()
		req.Engine.Events, req.Engine.TrialHook = hooks.event, hooks.trial
	}
	ctx := context.Background()
	var cut time.Time
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
		cut, _ = ctx.Deadline()
	}
	e0 := time.Now()
	des, res, stats, err := salsa.Execute(ctx, req)
	e1 := time.Now()
	exec := tr.Record("salsa.execute", "", root, e0, e1)
	if stats != nil {
		r.engine = stats.Wall
		r.counts = countsOf(stats)
		var busy time.Duration
		for _, jr := range stats.PerJob {
			busy += jr.Duration
		}
		r.eff = float64(busy) / float64(stats.Wall) / float64(min(workers, len(stats.PerJob)))
		engStart := e1.Add(-stats.Wall)
		tr.Record("lifetime.compile", "", exec, e0, engStart)
		eng := tr.Record("engine.run", "", exec, engStart, e1)
		hooks.record(tr, eng, stats, cut)
	}
	if !cut.IsZero() && e1.After(cut) {
		r.cancelToReturn = e1.Sub(cut)
	}
	if err != nil {
		return fail("error", err)
	}
	c0, cpuEncode := time.Now(), cpuClock(clockThreadCPU)
	rj := salsa.BuildResultJSON(req.Graph, des.Steps(), req.Mode, req.Seed, req.Restarts, res, stats)
	body, err := json.Marshal(rj)
	tr.Record("salsa.encode", "", root, c0, time.Now())
	if err != nil {
		return fail("error", err)
	}
	v0 := time.Now()
	verr := des.Verify(res)
	tr.Record("dpsim.verify", "", root, v0, time.Now())
	r.wall = time.Since(start)
	r.cpu, r.cpuOutside = cpuTime()-cpu0, decodeCPU+cpuClock(clockThreadCPU)-cpuEncode
	r.ref = cal.refMsSince(mark)
	tr.End(root)
	r.body, r.mux = body, rj.MergedMux

	// The oracle, outside the timed operation.
	cerr := res.Binding.Check()
	switch {
	case verr != nil:
		r.fail, r.err = "wrong", fmt.Errorf("verify: %w", verr)
	case cerr != nil:
		r.fail, r.err = "wrong", fmt.Errorf("check: %w", cerr)
	case rj.Partial && deadline == 0:
		r.fail, r.err = "partial", fmt.Errorf("partial result without a deadline")
	case !rj.Partial && deadline > 0:
		r.fail, r.err = "wrong", fmt.Errorf("deadline result not flagged partial")
	}
	if tr != nil && r.fail == "" {
		probeLayers(tr, label, g, res)
	}
	return r
}

// probeLayers times, outside the operation, the layers the operation
// reaches only through salsa.Execute and BuildResultJSON.
func probeLayers(tr *Tracer, label string, g *cdfg.Graph, res *salsa.Result) {
	p := tr.Begin("probe", label, 0)
	defer tr.End(p)
	t := time.Now()
	_ = g.Fingerprint()
	t = stamp(tr, "cdfg.fingerprint", p, t)
	_, _, _ = res.Binding.Eval()
	t = stamp(tr, "binding.eval", p, t)
	_ = res.IC.MergedMuxCost()
	stamp(tr, "datapath.merge", p, t)
}

// stamp records a span from t to now and returns now.
func stamp(tr *Tracer, name string, parent int, t time.Time) time.Time {
	now := time.Now()
	tr.Record(name, "", parent, t, now)
	return now
}

// libRun is everything one closed-loop phase produced.
type libRun struct {
	ops []opResult
}

// run drives the closed loop for the given time, or, with passTime
// set, for a fixed number of passes. A pass in progress when time runs
// out stops at the next operation boundary. Each operation starts
// after a full collection, untimed, so the collector work it pays for
// is its own garbage's, not whatever the operations before it left.
func (w *libWorkload) run(ins []input, ws int64, seconds time.Duration, tr *Tracer) libRun {
	var out libRun
	stop := time.Now().Add(seconds)
	passes := 0
	if w.passTime > 0 {
		passes = max(1, int(seconds/w.passTime))
		ws = 0
	}
	for pass := 0; passes == 0 || pass < passes; pass++ {
		for gi, in := range ins {
			if passes == 0 && pass >= max(1, w.window) && time.Now().After(stop) {
				return out
			}
			seed := requestSeed(ws, pass, 0)
			for r := 0; r < w.repeatsOf(gi); r++ {
				runtime.GC()
				op := allocate(in, gi, requestSeed(ws, pass, r), w.restarts, w.workers, 0, tr, w.name+"/"+in.name)
				op.pass = pass
				out.ops = append(out.ops, op)
			}
			if pass == 0 && w.deadline > 0 {
				runtime.GC()
				op := allocate(in, gi, seed, w.restarts, w.workers, w.deadline, tr, w.name+"/"+in.name+"/deadline")
				out.ops = append(out.ops, op)
			}
		}
	}
	return out
}

// inWindow reports whether pass p counts toward mux_sum and the engine
// counts.
func (w *libWorkload) inWindow(p int) bool { return w.window == 0 || p < w.window }

func (w *libWorkload) repeatsOf(gi int) int {
	if gi < len(w.repeats) {
		return w.repeats[gi]
	}
	return 1
}

// setup loads the inputs and warms the allocator with one untimed pass
// over the graphs (scale warms on its smallest graph only).
func (w *libWorkload) setup(k int) ([]input, error) {
	ins, err := w.load()
	if err != nil {
		return nil, err
	}
	warm := ins
	if w.deadline > 0 {
		warm = ins[:1]
	}
	for gi, in := range warm {
		if r := allocate(in, gi, warmSeed, w.restarts, w.workers, 0, nil, ""); r.fail != "" {
			return nil, fmt.Errorf("warm-up on %s: %v", in.name, r.err)
		}
	}
	return ins, nil
}

// summarize derives the end-to-end metrics of a phase.
func (w *libWorkload) summarize(ins []input, run libRun, rep *Report, prefix string) (attempted, failed int) {
	perGraph := make([][]float64, len(ins))
	overhead := make([][]float64, len(ins))
	perGraphCPU := make([][]float64, len(ins))
	outsideCPU := make([][]float64, len(ins))
	var deadlineMS []float64
	mux := 0
	seen := map[string]bool{}
	repeats := 0
	for _, op := range run.ops {
		attempted++
		key := fmt.Sprintf("%d/%d/%t", op.graph, op.seed, op.deadline)
		if seen[key] {
			repeats++
		}
		seen[key] = true
		if op.fail != "" {
			failed++
			continue
		}
		ms := float64(op.wall) / 1e6
		overhead[op.graph] = append(overhead[op.graph], float64(op.wall-op.engine)/1e6)
		outsideCPU[op.graph] = append(outsideCPU[op.graph], refMs(op.cpuOutside, op.ref))
		if op.deadline {
			deadlineMS = append(deadlineMS, ms)
			continue
		}
		perGraph[op.graph] = append(perGraph[op.graph], ms)
		perGraphCPU[op.graph] = append(perGraphCPU[op.graph], refMs(op.cpu, op.ref))
		if w.inWindow(op.pass) {
			mux += op.mux
		}
	}
	// The CPU times are averaged per graph with a geometric mean, not a
	// median: one graph's operations differ up to threefold in cost
	// between request seeds, so a median is one operation's time and
	// carries all of its noise, while the mean spreads it over all.
	var medians, overheads, cpus, outsides []float64
	for gi, xs := range perGraph {
		if len(xs) == 0 {
			continue
		}
		m, c := median(xs), geomean(perGraphCPU[gi])
		medians = append(medians, m)
		overheads = append(overheads, median(overhead[gi]))
		cpus = append(cpus, c)
		outsides = append(outsides, geomean(outsideCPU[gi]))
		fmt.Printf("%sgraph %-10s alloc_ms_p50 %10.3f ms  cpu gm %10.3f ref-ms  overhead_ms_p50 %8.3f ms  cpu gm %8.3f ref-ms  n=%d\n",
			prefix, ins[gi].name, m, c, median(overhead[gi]), outsides[len(outsides)-1], len(xs))
	}
	rep.Set("alloc_cpu_ms_geomean", geomean(cpus), "ms")
	rep.Set("overhead_cpu_ms", geomean(outsides), "ms")
	rep.Set("alloc_ms_geomean", geomean(medians), "ms")
	rep.Set("overhead_ms", geomean(overheads), "ms")
	rep.Set("mux_sum", float64(mux), "count")
	rep.Set("repeat_share", ratio(float64(repeats), float64(attempted)), "ratio")
	if len(deadlineMS) > 0 {
		rep.Set("deadline_ms_p50", median(deadlineMS), "ms")
		rep.Set("deadline_ms_max", quantile(deadlineMS, 1), "ms")
	}
	if w.name == "scale" && len(medians) == 2 {
		rep.Set("synth200_over_synth100", medians[1]/medians[0], "ratio")
	}
	rep.Set("fail_ratio", ratio(float64(failed), float64(attempted)), "ratio")
	return attempted, failed
}

// windowCounts sums the engine counts of the window's complete
// operations: the fixed result set mux_sum is taken over too.
func (w *libWorkload) windowCounts(run libRun) engineCounts {
	var c engineCounts
	for _, op := range run.ops {
		if op.deadline || !w.inWindow(op.pass) || op.fail != "" {
			continue
		}
		c.add(op.counts)
	}
	return c
}

// sameResults reports the first operation whose body differs between
// two phases that allocated the same (graph, seed).
func sameResults(a, b libRun) error {
	first := map[string][]byte{}
	for _, op := range a.ops {
		if !op.deadline && op.fail == "" {
			first[fmt.Sprintf("%d/%d", op.graph, op.seed)] = op.body
		}
	}
	for _, op := range b.ops {
		if op.deadline || op.fail != "" {
			continue
		}
		if want, ok := first[fmt.Sprintf("%d/%d", op.graph, op.seed)]; ok && !bytes.Equal(want, op.body) {
			return fmt.Errorf("graph %d seed %d: traced result differs from untraced", op.graph, op.seed)
		}
	}
	return nil
}

// wireRequest is the request body salsad receives for allocating the
// graph under the seed with default options.
func wireRequest(in input, seed int64) []byte {
	b, err := json.Marshal(service.AllocateRequest{Graph: in.data, Seed: seed})
	if err != nil {
		panic(err) // marshalling a struct of raw JSON and ints cannot fail
	}
	return b
}
