// Command perfbench is the repository benchmark. It runs one named
// workload against the library (paper, scale) or against an in-process
// salsad fleet (serve), checks every output, and prints its metrics by
// name with their units; the last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced.
// The gated times are CPU times of the whole process (every thread,
// user and system) in reference milliseconds (see calib.go): on a
// shared host the wall time of the same work varies with how much of
// the machine the neighbours leave, the CPU time far less, and the
// reference scale takes out the host's changes of speed. Wall times
// are printed beside them.
// With -trace 1 the run repeats its timed phase with spans recorded
// around every call into a layer, checks that tracing changed no
// result, prints the tracing overhead, writes the spans to the work
// directory, and reports the per-layer set. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// endToEnd are the metrics every untraced run reports, on every
// workload; perLayer are those every traced run reports.
var (
	endToEnd = []string{"setup_s", "alloc_cpu_ms_geomean", "overhead_cpu_ms", "mux_sum", "peak_rss_mb"}
	perLayer = []string{
		"cdfg.decode_ms", "cdfg.fingerprint_ms", "lifetime.compile_ms",
		"engine.run_ms", "engine.parallel_eff", "engine.trials", "engine.moves_tried",
		"engine.moves_accepted", "engine.accept_ratio", "engine.jobs_pruned",
		"core.search_ms", "core.moves_per_s", "core.finalize_ms", "core.finalize_share",
		"core.cancel_to_return_ms",
		"binding.eval_ms", "datapath.merge_ms", "salsa.encode_ms", "dpsim.verify_ms",
		"journal.append_sync_ms", "journal.replay_ms",
	}
)

// setupRepeats is how many times a run sets up; setup_s is the median
// of their CPU times.
const setupRepeats = 3

// cal times the calibration block the gated CPU times are scaled by.
var cal = newCalibrator()

// outcome is what a workload run hands back for printing.
type outcome struct {
	e2e       *Report // untraced
	layers    *Report // traced run only
	attempted int
	failed    int
	// problems are wrong outputs and broken determinism: any makes the
	// run incorrect.
	problems []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	tmp      string
	ladder   []float64
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper, scale or serve")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and traces")
	ladder := fs.String("ladder", "50,100,200,400,800", "serve: request rates to ascend, in requests per second; the first is the reference rung")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workdir: *workdir}
	for _, f := range strings.Split(*ladder, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: bad -ladder entry %q\n", f)
			return 2
		}
		o.ladder = append(o.ladder, v)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o.tmp = filepath.Join(o.workdir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(o.tmp)
	cal.start()
	defer cal.halt()

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d %s\n",
		o.workload, o.seed, *seconds, *trace, runtime.NumCPU(), runtime.Version())
	var (
		out *outcome
		err error
	)
	switch o.workload {
	case "paper":
		out, err = runLib(&libWorkload{name: "paper", load: corpusGraphs,
			restarts: 3, workers: runtime.NumCPU(), window: 10}, o)
	case "scale":
		out, err = runLib(&libWorkload{name: "scale", load: syntheticGraphs,
			restarts: 1, workers: 1, deadline: 100 * time.Millisecond, repeats: []int{3, 1}, passTime: 4 * time.Second}, o)
	case "serve":
		out, err = runServe(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want paper, scale or serve)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, ok := out.e2e.Get("peak_rss_mb"); !ok {
		rss, err := peakRSSMiB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out.e2e.Set("peak_rss_mb", rss, "MiB")
	}
	return emit(out, o.trace)
}

// emit prints every metric, then the result line, and returns the exit
// code: non-zero when any output was wrong.
func emit(out *outcome, traced bool) int {
	printReport("e2e", out.e2e)
	if traced {
		printReport("layer", out.layers)
	}
	for _, p := range out.problems {
		fmt.Println("WRONG", p)
	}
	want, rep := endToEnd, out.e2e
	if traced {
		want, rep = perLayer, out.layers
	}
	metrics := map[string]Metric{}
	for _, name := range want {
		m, ok := rep.Get(name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
			return 1
		}
		metrics[name] = m
	}
	correct := len(out.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printReport(kind string, r *Report) {
	for _, name := range r.names {
		m := r.values[name]
		note := ""
		if n := r.notes[name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Printf("%s %-28s %14.4f %s%s\n", kind, name, m.Value, m.Unit, note)
	}
}

// printOverhead prints how much the traced phase's end-to-end metrics
// differ from the untraced phase's.
func printOverhead(base, traced *Report) {
	for _, name := range base.names {
		b := base.values[name]
		t, ok := traced.values[name]
		if !ok || b.Unit == "count" || b.Unit == "ratio" {
			continue
		}
		fmt.Printf("trace-overhead %-24s untraced %12.4f traced %12.4f %s (%+.1f%%)\n",
			name, b.Value, t.Value, b.Unit, 100*ratio(t.Value-b.Value, b.Value))
	}
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// Linux CPU-time clocks (CLOCK_PROCESS_CPUTIME_ID and
// CLOCK_THREAD_CPUTIME_ID): user and system time of all the process's
// threads, or of the calling thread, to the nanosecond. On a
// paravirtualized guest the kernel leaves out the time the host ran
// something else on the vCPU.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// cpuTime returns the CPU time the process has used so far outside the
// calibrator.
func cpuTime() time.Duration {
	cal.busy.Lock()
	defer cal.busy.Unlock()
	return cpuClock(clockProcessCPU) - cal.ownCPU()
}

// timeSetups runs set-up setupRepeats times, prints each repetition's
// wall and CPU time, and returns the median CPU time in reference
// seconds, scaled by the blocks timed during set-up. The run goes on
// with the last repetition's product.
func timeSetups(setup func(k int) error) (float64, error) {
	var xs []float64
	mark := cal.mark()
	for k := 0; k < setupRepeats; k++ {
		t0, c0 := time.Now(), cpuTime()
		if err := setup(k); err != nil {
			return 0, err
		}
		cpu := cpuTime() - c0
		fmt.Printf("setup %d: wall %.4f s cpu %.4f s\n", k, time.Since(t0).Seconds(), cpu.Seconds())
		xs = append(xs, cpu.Seconds())
	}
	return median(xs) / cal.refMsSince(mark), nil
}

// runLib runs the paper or scale workload.
func runLib(w *libWorkload, o options) (*outcome, error) {
	var ins []input
	setup, err := timeSetups(func(k int) error {
		var err error
		ins, err = w.setup(k)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: newReport()}
	out.e2e.Set("setup_s", setup, "s")
	base := w.run(ins, o.seed, o.seconds, nil)
	out.attempted, out.failed = w.summarize(ins, base, out.e2e, "")
	cal.print()
	// A library operation has no overload to shed: any failure is a
	// wrong or missing result.
	for _, op := range base.ops {
		if op.fail != "" {
			out.problem("%s %s seed %d: %s: %v", w.name, ins[op.graph].name, op.seed, op.fail, op.err)
		}
	}
	if !o.trace {
		return out, nil
	}

	tr := NewTracer()
	traced := w.run(ins, o.seed, o.seconds, tr)
	trep := newReport()
	a, f := w.summarize(ins, traced, trep, "traced ")
	out.attempted += a
	out.failed += f
	printOverhead(out.e2e, trep)
	for _, op := range traced.ops {
		if op.fail != "" {
			out.problem("traced %s %s seed %d: %s: %v", w.name, ins[op.graph].name, op.seed, op.fail, op.err)
		}
	}
	c0, c1 := w.windowCounts(base), w.windowCounts(traced)
	if c0 != c1 {
		out.problem("engine counts differ between untraced %+v and traced %+v runs", c0, c1)
	}
	if m0, m1 := out.e2e.values["mux_sum"].Value, trep.values["mux_sum"].Value; m0 != m1 {
		out.problem("mux_sum differs between untraced (%g) and traced (%g) runs", m0, m1)
	}
	if err := sameResults(base, traced); err != nil {
		out.problem("%v", err)
	}

	out.layers = newReport()
	setCounts(out.layers, c1)
	var effs, cancel []float64
	var moves int
	for _, op := range traced.ops {
		if op.fail != "" {
			continue
		}
		if op.deadline {
			cancel = append(cancel, float64(op.cancelToReturn)/1e6)
			continue
		}
		effs = append(effs, op.eff)
		moves += op.counts.MovesTried
	}
	if w.deadline == 0 {
		cancel = cancelProbes(ins, traced, w.restarts, w.workers)
	}
	out.layers.Set("engine.parallel_eff", mean(effs), "ratio")
	out.layers.Set("core.cancel_to_return_ms", mean(cancel), "ms")
	spans := tr.Spans()
	spanLayers(out.layers, spans, moves)
	selfTable(spans)
	var reqs [][]byte
	for _, op := range traced.ops {
		if op.fail == "" && !op.deadline {
			reqs = append(reqs, wireRequest(ins[op.graph], op.seed))
		}
	}
	if err := journalProbe(out.layers, filepath.Join(o.tmp, "journal"), reqs, nil); err != nil {
		return nil, err
	}
	return out, writeTrace(tr, o)
}

// setCounts records the deterministic engine counts.
func setCounts(r *Report, c engineCounts) {
	r.Set("engine.trials", float64(c.Trials), "count")
	r.Set("engine.moves_tried", float64(c.MovesTried), "count")
	r.Set("engine.moves_accepted", float64(c.MovesAccepted), "count")
	r.Set("engine.accept_ratio", ratio(float64(c.MovesAccepted), float64(c.MovesTried)), "ratio")
	r.Set("engine.jobs_pruned", float64(c.Pruned), "count")
}

// cancelProbes measures, for workloads without deadline requests, how
// long the allocator takes to return once cancelled: each graph runs
// once more with a deadline at a quarter of its median engine time.
func cancelProbes(ins []input, run libRun, restarts, workers int) []float64 {
	engine := make([][]float64, len(ins))
	seed := int64(0)
	for _, op := range run.ops {
		if op.fail == "" && !op.deadline {
			engine[op.graph] = append(engine[op.graph], float64(op.engine))
			seed = op.seed
		}
	}
	var out []float64
	for gi, in := range ins {
		if len(engine[gi]) == 0 {
			continue
		}
		d := max(time.Duration(median(engine[gi])/4), time.Millisecond)
		if r := allocate(in, gi, seed, restarts, workers, d, nil, ""); r.cancelToReturn > 0 {
			out = append(out, float64(r.cancelToReturn)/1e6)
		}
	}
	return out
}

// spanNames maps span names to the per-layer metric of their mean
// duration.
var spanNames = map[string]string{
	"cdfg.decode":        "cdfg.decode_ms",
	"cdfg.fingerprint":   "cdfg.fingerprint_ms",
	"lifetime.compile":   "lifetime.compile_ms",
	"engine.run":         "engine.run_ms",
	"core.search":        "core.search_ms",
	"core.finalize":      "core.finalize_ms",
	"binding.eval":       "binding.eval_ms",
	"datapath.merge":     "datapath.merge_ms",
	"salsa.encode":       "salsa.encode_ms",
	"dpsim.verify":       "dpsim.verify_ms",
	"service.hit":        "service.hit_ms",
	"service.miss":       "service.miss_ms",
	"service.job_accept": "service.job_accept_ms",
	"cluster.router_hit": "cluster.router_hit_ms",
}

// spanLayers derives the span-based per-layer metrics. moves is the
// number of moves the traced searches tried.
func spanLayers(r *Report, spans []Span, moves int) {
	total := map[string]time.Duration{}
	count := map[string]int{}
	self := SelfTimes(spans)
	var routerSelf []float64
	for i, s := range spans {
		total[s.Name] += s.End - s.Start
		count[s.Name]++
		if s.Name == "cluster.router" && self[i] < s.End-s.Start {
			// Only router spans with a backend child: the router's own
			// time on a request it forwarded.
			routerSelf = append(routerSelf, float64(self[i])/1e6)
		}
	}
	names := make([]string, 0, len(spanNames))
	for span := range spanNames {
		names = append(names, span)
	}
	sort.Strings(names)
	for _, span := range names {
		if count[span] > 0 {
			r.Set(spanNames[span], float64(total[span])/float64(count[span])/1e6, "ms")
		}
	}
	search, fin := total["core.search"], total["core.finalize"]
	r.Set("core.moves_per_s", ratio(float64(moves), search.Seconds()), "1/s")
	r.Set("core.finalize_share", ratio(float64(fin), float64(search+fin)), "ratio")
	if len(routerSelf) > 0 {
		r.Set("cluster.router_self_ms", mean(routerSelf), "ms")
	}
}

// selfTable prints, per operation label, the self time of each span
// name summed over the label's operations, largest first.
func selfTable(spans []Span) {
	self := SelfTimes(spans)
	labels := map[int]string{}
	for _, s := range spans {
		if s.Parent == 0 {
			labels[s.ID] = s.Label
		}
	}
	sums := map[string]map[string]time.Duration{}
	for i, s := range spans {
		l := labels[s.Op]
		if l == "" {
			continue
		}
		if sums[l] == nil {
			sums[l] = map[string]time.Duration{}
		}
		sums[l][s.Name] += self[i]
	}
	var ls []string
	for l := range sums {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	for _, l := range ls {
		type row struct {
			name string
			d    time.Duration
		}
		var rows []row
		for n, d := range sums[l] {
			rows = append(rows, row{n, d})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
		var parts []string
		for _, r := range rows {
			parts = append(parts, fmt.Sprintf("%s=%.1fms", r.name, float64(r.d)/1e6))
		}
		fmt.Printf("self-time %s: %s\n", l, strings.Join(parts, " "))
	}
}

// removeAll empties a scratch directory, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// writeTrace writes the spans to the work directory.
func writeTrace(tr *Tracer, o options) error {
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Println("trace written to", path)
	return nil
}
