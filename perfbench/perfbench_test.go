package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/workloads"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so selection must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64 // percentile
	}{
		{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 100}, {1, 100},
	} {
		got := tail(seq(tc.n))
		if got.Percentile != tc.want || got.Count != tc.n {
			t.Errorf("n=%d: got p%g of %d, want p%g of %d", tc.n, got.Percentile, got.Count, tc.want, tc.n)
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if got.Percentile < 100 && beyond < 10 {
			t.Errorf("n=%d: p%g=%g has only %d samples beyond it", tc.n, got.Percentile, got.Value, beyond)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 70 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 40 * ms, End: 45 * ms},
	}
	self := SelfTimes(spans)
	want := []time.Duration{30 * ms, 40 * ms, 35 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestClassify(t *testing.T) {
	transport := errors.New("connection reset")
	for _, tc := range []struct {
		name    string
		status  int
		err     error
		partial bool
		want    int
		class   string
	}{
		{"ok", 200, nil, false, 200, ""},
		{"job accepted", 202, nil, false, 202, ""},
		{"refused", 429, nil, false, 200, "refused"},
		{"unavailable", 503, nil, false, 200, "server"},
		{"internal", 500, nil, false, 200, "server"},
		{"transport", 0, transport, false, 200, "transport"},
		{"timeout", 408, nil, false, 200, "timeout"},
		{"partial without a deadline", 200, nil, true, 200, "partial"},
		{"unexpected status", 422, nil, false, 200, "status"},
	} {
		if got := classify(tc.status, tc.err, tc.partial, tc.want); got != tc.class {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.class)
		}
	}
}

// TestOracleFlagsWrongBytes serves one correct and one altered body and
// expects only the altered one to be marked wrong.
func TestOracleFlagsWrongBytes(t *testing.T) {
	data, err := workloads.Figure1().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w := &serveWorkload{ws: 1, graphs: []input{{name: "figure1", data: data}}}
	g, seed := w.hotKey(0)
	direct := allocate(w.graphs[g], g, seed, 3, 1, 0, nil, "")
	if direct.fail != "" {
		t.Fatal(direct.err)
	}
	right := append(append([]byte(nil), direct.body...), '\n')
	wrong := append([]byte(nil), right...)
	wrong[len(wrong)-3] ^= 1
	ph := servePhase{rungs: []rungResult{{samples: []sample{
		{request: request{kind: kindHot, graph: g, seed: seed}, body: right},
		{request: request{kind: kindHot, graph: g, seed: seed}, body: wrong},
		{request: request{kind: kindJob, graph: g, seed: seed}, body: direct.body},
	}}}}
	ph.probe = []sample{
		{request: request{kind: kindMiss, graph: g, seed: seed}, body: wrong},
		{request: request{kind: kindMiss, graph: g, seed: seed}, body: right},
	}
	out := &outcome{}
	w.oracle(ph, nil, out)
	got := []string{ph.rungs[0].samples[0].fail, ph.rungs[0].samples[1].fail, ph.rungs[0].samples[2].fail,
		ph.probe[0].fail, ph.probe[1].fail}
	if !slices.Equal(got, []string{"", "wrong", "", "wrong", ""}) {
		t.Fatalf("fail classes %q, want [\"\" wrong \"\" wrong \"\"]", got)
	}
	if len(out.problems) != 2 {
		t.Fatalf("problems %q, want exactly two", out.problems)
	}
}

// TestProbeReportSplitsClasses checks the cost probe's metrics: misses
// by graph, router-cache and backend-cache hits apart, and failed
// requests and hot requests that missed the caches left out.
func TestProbeReportSplitsClasses(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * 1e6) }
	graphs := []input{{name: "a"}, {name: "b"}}
	var probe []sample
	add := func(k kind, graph int, cache, shard string, cpu float64, fail string) {
		// A reference millisecond is 0.5 ms of CPU here.
		probe = append(probe, sample{request: request{kind: k, graph: graph}, cache: cache, shard: shard, cpu: ms(cpu), ref: 0.5, fail: fail})
	}
	for _, x := range []float64{4, 5, 6} {
		add(kindMiss, 0, "miss", "b0", x, "")
		add(kindMiss, 1, "miss", "b1", 4*x, "")
		add(kindHot, 0, "hit", "router", x/10, "")
		add(kindHot, 1, "hit", "b1", x/5, "")
	}
	add(kindMiss, 0, "miss", "b0", 1000, "transport")
	add(kindHot, 1, "hit", "router", 1000, "wrong")
	add(kindHot, 1, "miss", "b1", 1000, "")
	rep := newReport()
	probeReport(probe, graphs, rep, "")
	near := func(name string, want float64) {
		t.Helper()
		if m, _ := rep.Get(name); math.Abs(m.Value-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m.Value, want)
		}
	}
	gm := math.Cbrt(4 * 5 * 6)                           // geometric mean of 4, 5, 6
	near("alloc_cpu_ms_geomean", math.Sqrt(gm*4*gm)/0.5) // graphs a and b
	near("overhead_cpu_ms", math.Sqrt(gm/10*gm/5)/0.5)   // router and backend hits
}

// TestCPUTimeLeavesOutWaitingAndCalibrator checks that the measured
// CPU time advances neither with the wall clock while the process
// sleeps nor with the calibrator's blocks, which it times meanwhile.
func TestCPUTimeLeavesOutWaitingAndCalibrator(t *testing.T) {
	saved := cal.blocks
	defer func() { cal.blocks = saved }()
	cal.start()
	c0, own0, n0 := cpuTime(), cal.ownCPU(), cal.mark()
	time.Sleep(20 * calPeriod)
	cal.halt()
	d, own, n := cpuTime()-c0, cal.ownCPU()-own0, cal.mark()-n0
	if n < 5 || own < time.Duration(n)*time.Duration(cal.refMsSince(n0)*1e6)/2 {
		t.Fatalf("calibrator timed %d blocks in %v of its own CPU time", n, own)
	}
	if d > own/2 {
		t.Fatalf("sleeping used %v of CPU time beside the calibrator's %v", d, own)
	}
}

// TestStallShowsAsLatencyOnLaterRequests stalls the first request for
// 300ms behind a single connection: the requests due after it waited
// for it, and their latency, timed from when they were due, shows it.
func TestStallShowsAsLatencyOnLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Salsa-Cache", "hit")
		_, _ = w.Write([]byte(`{"partial":false}`))
	}))
	defer srv.Close()
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer c.CloseIdleConnections()

	w := &serveWorkload{graphs: []input{{name: "g", data: []byte(`{}`)}}}
	start := time.Now().Add(10 * time.Millisecond)
	var reqs []request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, request{kind: kindHot, due: start.Add(time.Duration(i) * 20 * time.Millisecond)})
	}
	rr := w.runRung(c, srv.URL, reqs)
	for i, s := range rr.samples {
		if s.fail != "" {
			t.Fatalf("request %d failed: %s %v", i, s.fail, s.err)
		}
		// Request i was due i*20ms after the first and could not start
		// before the stall ended.
		if floor := stall - time.Duration(i)*20*time.Millisecond; s.latency < floor {
			t.Errorf("request %d: latency %v, want at least %v", i, s.latency, floor)
		}
	}
}

// TestLatencyCountsFromDue dispatches a request 200ms after it was
// due: its latency includes the generator's lateness.
func TestLatencyCountsFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"partial":false}`))
	}))
	defer srv.Close()
	w := &serveWorkload{graphs: []input{{name: "g", data: []byte(`{}`)}}}
	s := sample{request: request{kind: kindHot, due: time.Now().Add(-200 * time.Millisecond)}}
	w.do(srv.Client(), srv.URL, &s)
	if s.fail != "" || s.latency < 200*time.Millisecond {
		t.Fatalf("latency %v (fail %q), want at least the 200ms the request was late", s.latency, s.fail)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints in
// its result line equal to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark prints %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark prints %v", got, perLayer)
	}
}

func TestGrowingBacklog(t *testing.T) {
	if growing([]int{1, 2, 1, 2, 2, 1, 2, 1, 2}, 100) {
		t.Error("a steady backlog reads as growing")
	}
	if !growing([]int{1, 2, 4, 8, 16, 24, 32, 40, 48}, 100) {
		t.Error("a backlog climbing without bound reads as steady")
	}
}
