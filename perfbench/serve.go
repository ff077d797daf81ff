package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/cluster"
	"salsa/internal/journal"
	"salsa/internal/service"
)

// The serve workload: an in-process fleet of a cluster router in front
// of two journaled salsad backends, loaded over loopback by an open
// loop at a ladder of rates.
const (
	hotKeys     = 192 // 1.5x the router's 128-entry response cache
	hotShare    = 0.7
	missShare   = 0.2 // the rest are async jobs
	pollEvery   = 10 * time.Millisecond
	sloTail     = time.Second
	reqTimeout  = 20 * time.Second
	drainLimit  = 10 * time.Second
	refShare    = 0.4 // of the ladder's time spent at the reference rung
	probeShare  = 0.3 // of the run spent in the cost probe after the ladder
	probeMisses = 4   // one request in probeMisses of the probe is a miss
	serveBacked = 2   // backends behind the router
)

// serveGraphs are the small corpus graphs every serve request uses.
var serveGraphs = []string{"figure1", "tseng", "diffeq", "fir8"}

type kind int

const (
	kindHot kind = iota
	kindMiss
	kindJob
)

func (k kind) String() string { return [...]string{"hot", "miss", "job"}[k] }

// request is one planned request of a rung.
type request struct {
	kind  kind
	graph int
	seed  int64
	due   time.Time
}

// sample is the outcome of one request, timed from when it was due.
type sample struct {
	request
	latency time.Duration // sync: due to response; job: due to terminal poll
	accept  time.Duration // job: due to 202
	late    time.Duration // how late the generator dispatched it
	cpu     time.Duration // cost probe: the process's CPU time over the request
	ref     float64       // cost probe: CPU time of a reference millisecond meanwhile
	status  int
	cache   string // X-Salsa-Cache of a sync response
	shard   string // X-Salsa-Shard of a sync response
	body    []byte // sync 200 body, or a job's terminal result
	fail    string
	err     error
}

// classify maps one exchange to a failure class, or "" for success.
// Refused (429), timed-out (408) and server (5xx) answers fail, and so
// does a partial result: no serve request sets a deadline.
func classify(status int, err error, partial bool, want int) string {
	switch {
	case err != nil:
		return "transport"
	case status == http.StatusTooManyRequests:
		return "refused"
	case status == http.StatusRequestTimeout:
		return "timeout"
	case status >= 500:
		return "server"
	case status != want:
		return "status"
	case partial:
		return "partial"
	}
	return ""
}

// fleet is the router, its backends and their journals.
type fleet struct {
	backends  []*backend
	router    *cluster.Router
	routerURL string
	routerSrv *http.Server
	stopProbe context.CancelFunc
	served    sync.WaitGroup
}

type backend struct {
	srv     *service.Server
	httpSrv *http.Server
	url     string
	jr      *journal.Journal
	dir     string
}

// listen serves h on a fresh loopback port.
func (f *fleet) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// startFleet boots the backends on journals under dir and the router
// in front of them. A non-nil tracer wraps every handler in span
// middleware.
func startFleet(dir string, tr *Tracer, corr *correlator) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < serveBacked; i++ {
		bdir := filepath.Join(dir, fmt.Sprintf("backend%d", i))
		jr, err := journal.Open(bdir)
		if err != nil {
			f.close()
			return nil, err
		}
		srv := service.New(service.Config{Journal: jr})
		b := &backend{srv: srv, jr: jr, dir: bdir}
		f.backends = append(f.backends, b)
		b.httpSrv, b.url, err = f.listen(traceHandler(tr, corr, "service", srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, b.url)
	}
	r, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	ctx, cancel := context.WithCancel(context.Background())
	f.stopProbe = cancel
	r.Start(ctx)
	f.routerSrv, f.routerURL, err = f.listen(traceHandler(tr, corr, "cluster", r.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close drains and stops everything and closes the journals.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	var errs []error
	if f.stopProbe != nil {
		f.stopProbe()
	}
	if f.routerSrv != nil {
		errs = append(errs, f.routerSrv.Shutdown(ctx), f.router.Drain(ctx))
	}
	for _, b := range f.backends {
		if b.httpSrv != nil {
			errs = append(errs, b.httpSrv.Shutdown(ctx))
		}
		errs = append(errs, b.srv.Drain(ctx), b.jr.Close())
	}
	f.served.Wait()
	return errors.Join(errs...)
}

// snapshot sums the backends' service counters and returns the
// router's.
func (f *fleet) snapshot() (svc, rt map[string]int64) {
	svc = map[string]int64{}
	for _, b := range f.backends {
		for k, v := range b.srv.MetricsSnapshot() {
			svc[k] += v
		}
	}
	return svc, f.router.MetricsSnapshot()
}

// sampleQueueDepth polls the backends' admission-queue depth every
// 10ms until the returned function is called; that function returns
// the deepest queue seen.
func (f *fleet) sampleQueueDepth() func() int64 {
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var peak int64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, b := range f.backends {
					peak = max(peak, b.srv.MetricsSnapshot()["queue_depth"])
				}
			case <-stop:
				done <- peak
				return
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

// correlator links a router span to the backend span serving the same
// request body, so the router's own time is its span minus the
// backend's.
type correlator struct {
	mu   sync.Mutex
	open map[uint64]int // body hash -> router span ID
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	return h.Sum64()
}

// traceHandler wraps h in span middleware: the span's name is the layer
// plus what the handler did (hit, miss, job_accept). Without a tracer
// it returns h unchanged.
func traceHandler(tr *Tracer, corr *correlator, layer string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var body []byte
		if r.Body != nil {
			body, _ = io.ReadAll(r.Body) // a short read reaches the handler as a bad body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		key := bodyHash(body)
		parent := 0
		id := 0
		corr.mu.Lock()
		if layer == "cluster" && r.Method == http.MethodPost {
			id = tr.Begin(layer+".request", "", 0)
			corr.open[key] = id
		} else if layer == "service" {
			parent = corr.open[key]
		}
		corr.mu.Unlock()
		h.ServeHTTP(w, r)
		name := layer + "." + spanKind(layer, r, w.Header())
		if id != 0 {
			corr.mu.Lock()
			delete(corr.open, key)
			corr.mu.Unlock()
			tr.Rename(id, name)
			tr.End(id)
			return
		}
		tr.Record(name, "", parent, start, time.Now())
	})
}

// spanKind names what a handler did from its route and headers.
func spanKind(layer string, r *http.Request, h http.Header) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return "job_accept"
	case r.Method != http.MethodPost:
		return "poll"
	case layer == "cluster" && h.Get("X-Salsa-Shard") == "router":
		return "router_hit"
	case layer == "cluster":
		return "router"
	case h.Get("X-Salsa-Cache") == "hit":
		return "hit"
	}
	return "miss"
}

// serveWorkload holds the inputs of one serve run.
type serveWorkload struct {
	ws     int64
	graphs []input
	ladder []float64 // requests per second, ascending
}

// hotKey is hot-set entry i: a graph and a seed.
func (w *serveWorkload) hotKey(i int) (int, int64) {
	return i % len(w.graphs), w.ws*100000 + int64(i)
}

// plan lays out one rung's requests: an open loop at rate rps for d,
// with a seeded kind mix. unique numbers the miss and job seeds across
// the run so none repeats.
func (w *serveWorkload) plan(rung int, rps float64, start time.Time, d time.Duration, unique *int64) []request {
	rng := rand.New(rand.NewSource(w.ws*7919 + int64(rung)))
	n := int(rps * d.Seconds())
	reqs := make([]request, n)
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
		u := rng.Float64()
		switch {
		case u < hotShare:
			g, s := w.hotKey(rng.Intn(hotKeys))
			reqs[i] = request{kind: kindHot, graph: g, seed: s, due: due}
		default:
			k := kindMiss
			if u >= hotShare+missShare {
				k = kindJob
			}
			*unique++
			reqs[i] = request{kind: k, graph: int(*unique) % len(w.graphs), seed: w.ws*100000 + 50000 + *unique, due: due}
		}
	}
	return reqs
}

// loadClient is plain net/http with at most nproc connections to the
// router and no retries: a failure stays a failure.
func loadClient() *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
}

// do performs one request against the router and fills in its sample.
func (w *serveWorkload) do(c *http.Client, base string, s *sample) {
	body := wireRequest(w.graphs[s.graph], s.seed)
	if s.kind != kindJob {
		resp, err := c.Post(base+"/allocate", "application/json", bytes.NewReader(body))
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			s.status, s.cache, s.shard = resp.StatusCode, resp.Header.Get("X-Salsa-Cache"), resp.Header.Get("X-Salsa-Shard")
		}
		s.latency = time.Since(s.due)
		s.body, s.err = data, err
		s.fail = classify(s.status, err, isPartial(data), http.StatusOK)
		return
	}
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	var acc struct {
		ID string `json:"id"`
	}
	if err == nil {
		s.status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&acc)
		_ = resp.Body.Close()
	}
	s.accept = time.Since(s.due)
	if s.fail = classify(s.status, err, false, http.StatusAccepted); s.fail != "" {
		s.err, s.latency = err, s.accept
		return
	}
	for {
		st, code, err := pollJob(c, base+"/jobs/"+acc.ID)
		if err != nil || code != http.StatusOK {
			s.latency, s.err = time.Since(s.due), err
			s.fail = classify(code, err, false, http.StatusOK)
			return
		}
		if st.State == "done" || st.State == "failed" {
			s.latency = time.Since(s.due)
			s.body = st.Result
			s.fail = classify(st.HTTPStatus, nil, isPartial(st.Result), http.StatusOK)
			return
		}
		if time.Since(s.due) > reqTimeout {
			s.latency, s.fail = time.Since(s.due), "timeout"
			return
		}
		time.Sleep(pollEvery)
	}
}

func pollJob(c *http.Client, url string) (service.JobStatus, int, error) {
	var st service.JobStatus
	resp, err := c.Get(url)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, resp.StatusCode, nil
	}
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

func isPartial(body []byte) bool {
	var doc struct {
		Partial bool `json:"partial"`
	}
	return json.Unmarshal(body, &doc) == nil && doc.Partial
}

// rungResult is one rung of the ladder.
type rungResult struct {
	rps     float64
	samples []sample
	// backlog is the number of requests in flight, sampled while the
	// rung dispatched.
	backlog []int
}

// runRung drives one rung: a single generator goroutine dispatches
// each request when it is due; each request runs until answered.
// Waiting for one of the nproc connections happens inside the client,
// so it counts toward the request's latency.
func (w *serveWorkload) runRung(c *http.Client, base string, reqs []request) rungResult {
	out := rungResult{samples: make([]sample, len(reqs))}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var xs []int
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				xs = append(xs, int(inflight.Load()))
			case <-stopSampling:
				sampled <- xs
				return
			}
		}
	}()
	for i, r := range reqs {
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		s := &out.samples[i]
		s.request = r
		s.late = time.Since(r.due)
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			w.do(c, base, s)
		}()
	}
	close(stopSampling)
	out.backlog = <-sampled
	wg.Wait()
	return out
}

// sloOK applies the SLO to a rung: the sync tail, with failed and
// refused requests counted as misses of the limit, stays within one
// second, and the backlog does not grow.
func sloOK(r rungResult) (bool, Tail) {
	var lat []float64
	for _, s := range r.samples {
		if s.kind == kindJob {
			continue
		}
		v := float64(s.latency) / 1e6
		if s.fail != "" {
			v = math.Inf(1)
		}
		lat = append(lat, v)
	}
	t := tail(lat)
	return t.Value <= float64(sloTail)/1e6 && !growing(r.backlog, r.rps), t
}

// growing reports whether the in-flight count in the last third of a
// rung at rps clearly exceeds that of the first third: by more than
// double plus a tenth of a second's arrivals.
func growing(xs []int, rps float64) bool {
	if len(xs) < 3 {
		return false
	}
	third := len(xs) / 3
	avg := func(ys []int) float64 {
		s := 0
		for _, y := range ys {
			s += y
		}
		return float64(s) / float64(len(ys))
	}
	return avg(xs[len(xs)-third:]) > 2*avg(xs[:third])+rps/10
}

// warm sends every hot key once so both cache tiers hold results
// before timing starts.
func (w *serveWorkload) warm(c *http.Client, base string) error {
	var wg sync.WaitGroup
	errs := make([]error, hotKeys)
	sem := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < hotKeys; i++ {
		g, seed := w.hotKey(i)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s := sample{request: request{kind: kindHot, graph: g, seed: seed, due: time.Now()}}
			w.do(c, base, &s)
			if s.fail != "" {
				errs[i] = fmt.Errorf("warm-up %s seed %d: %s %v", w.graphs[g].name, seed, s.fail, s.err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// loadServeGraphs picks the small corpus graphs.
func loadServeGraphs() ([]input, error) {
	all, err := corpusGraphs()
	if err != nil {
		return nil, err
	}
	var out []input
	for _, name := range serveGraphs {
		for _, in := range all {
			if in.name == name {
				out = append(out, in)
			}
		}
	}
	if len(out) != len(serveGraphs) {
		return nil, fmt.Errorf("testdata lacks one of %v", serveGraphs)
	}
	return out, nil
}

// servePhase is one timed ladder ascent and the cost probe after it.
type servePhase struct {
	rungs    []rungResult
	probe    []sample
	svc, rt  map[string]int64 // counter deltas over the phase
	queueMax int64
	// refRSS is the process's peak resident memory when the reference
	// rung ends: the rungs above it overload the fleet on purpose, and
	// how much memory a growing backlog holds varies run to run.
	refRSS float64
}

// phase ascends the ladder until a rung fails the SLO, then runs the
// cost probe for probeShare of the time. The reference rung (the
// first) gets refShare of the ladder's time; the others split the
// rest.
func (w *serveWorkload) phase(f *fleet, c *http.Client, seconds time.Duration, sampleQueue bool) servePhase {
	var ph servePhase
	svc0, rt0 := f.snapshot()
	queueMax := func() int64 { return 0 }
	if sampleQueue {
		queueMax = f.sampleQueueDepth()
	}
	var unique int64
	ladder := time.Duration(float64(seconds) * (1 - probeShare))
	step := time.Duration(float64(ladder) * (1 - refShare) / float64(max(1, len(w.ladder)-1)))
	for i, rps := range w.ladder {
		d := step
		if i == 0 {
			d = time.Duration(float64(ladder) * refShare)
		}
		reqs := w.plan(i, rps, time.Now().Add(10*time.Millisecond), d, &unique)
		rr := w.runRung(c, f.routerURL, reqs)
		rr.rps = rps
		ph.rungs = append(ph.rungs, rr)
		if i == 0 {
			if rss, err := peakRSSMiB(); err == nil {
				ph.refRSS = rss
			}
		}
		if ok, _ := sloOK(rr); !ok {
			break
		}
	}
	ph.probe = w.probe(c, f.routerURL, seconds-ladder, &unique)
	ph.queueMax = queueMax()
	svc1, rt1 := f.snapshot()
	ph.svc, ph.rt = delta(svc0, svc1), delta(rt0, rt1)
	return ph
}

// probe measures what a request costs the fleet. One client sends
// requests one at a time through the router, so the process's CPU time
// over a request is what the client, the router, a backend and the
// engine spent on it, whatever else the host runs. Of every probeMisses
// requests one is a miss with a unique seed, round-robin over the
// graphs; the others are seeded picks from the hot set. It runs for d
// and at least until every graph has had ten misses.
func (w *serveWorkload) probe(c *http.Client, base string, d time.Duration, unique *int64) []sample {
	rng := rand.New(rand.NewSource(w.ws*7919 + 1000))
	stop := time.Now().Add(d)
	var out []sample
	for i := 0; i < 10*probeMisses*len(w.graphs) || time.Now().Before(stop); i++ {
		s := sample{request: request{kind: kindHot, due: time.Now()}}
		if i%probeMisses == 0 {
			*unique++
			s.kind, s.graph, s.seed = kindMiss, int(*unique)%len(w.graphs), w.ws*100000+50000+*unique
		} else {
			s.graph, s.seed = w.hotKey(rng.Intn(hotKeys))
		}
		c0, mark := cpuTime(), cal.mark()
		w.do(c, base, &s)
		s.cpu, s.ref = cpuTime()-c0, cal.refMsSince(mark)
		out = append(out, s)
	}
	return out
}

// probeReport prints the cost probe's CPU times (in reference
// milliseconds) and wall times per request class and records: the
// geometric mean over graphs of the geometric mean CPU time of a miss,
// and the geometric mean of the CPU times of router-cache hits and
// backend-cache hits, each class weighted equally. Misses of one graph
// differ in cost between seeds, so a median would be one request's
// time and carry all of its noise.
func probeReport(probe []sample, graphs []input, rep *Report, prefix string) {
	missCPU := make([][]float64, len(graphs))
	missWall := make([][]float64, len(graphs))
	var routerCPU, backendCPU, routerWall, backendWall []float64
	for _, s := range probe {
		if s.fail != "" {
			continue
		}
		cpu, wall := refMs(s.cpu, s.ref), float64(s.latency)/1e6
		switch {
		case s.cache == "hit" && s.shard == "router":
			routerCPU, routerWall = append(routerCPU, cpu), append(routerWall, wall)
		case s.cache == "hit":
			backendCPU, backendWall = append(backendCPU, cpu), append(backendWall, wall)
		case s.kind == kindMiss:
			missCPU[s.graph] = append(missCPU[s.graph], cpu)
			missWall[s.graph] = append(missWall[s.graph], wall)
		}
	}
	var medians []float64
	for gi, xs := range missCPU {
		if len(xs) == 0 {
			continue
		}
		medians = append(medians, geomean(xs))
		fmt.Printf("%sprobe miss %-10s cpu gm %9.3f ref-ms  wall p50 %9.3f ms  n=%d\n", prefix, graphs[gi].name, geomean(xs), median(missWall[gi]), len(xs))
	}
	fmt.Printf("%sprobe router-cache hit  cpu gm %9.3f ref-ms  wall p50 %9.3f ms  n=%d\n", prefix, geomean(routerCPU), median(routerWall), len(routerCPU))
	fmt.Printf("%sprobe backend-cache hit cpu gm %9.3f ref-ms  wall p50 %9.3f ms  n=%d\n", prefix, geomean(backendCPU), median(backendWall), len(backendCPU))
	rep.Set("alloc_cpu_ms_geomean", geomean(medians), "ms")
	rep.Set("overhead_cpu_ms", geomean([]float64{geomean(routerCPU), geomean(backendCPU)}), "ms")
}

func delta(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// serveOracle is the direct library answer to every request a phase
// saw answered, computed after the timed phase.
type serveOracle struct {
	want map[[2]int64][]byte // (graph, seed) -> body as salsad serves it
	ops  []opResult          // every direct allocation
	// mux and counts are summed over the hot set: a fixed result set,
	// whatever order requests arrived in.
	mux    int
	counts engineCounts
}

// oracle allocates every hot key and every distinct answered request
// directly, checks each result (Binding.Check, Design.Verify), and
// marks each served body that differs as wrong.
func (w *serveWorkload) oracle(ph servePhase, tr *Tracer, out *outcome) serveOracle {
	o := serveOracle{want: map[[2]int64][]byte{}}
	solve := func(g int, seed int64) ([]byte, opResult) {
		r := allocate(w.graphs[g], g, seed, 3, runtime.NumCPU(), 0, tr, "serve/"+w.graphs[g].name)
		if r.fail != "" {
			out.problem("oracle %s seed %d: %s: %v", w.graphs[g].name, seed, r.fail, r.err)
		}
		o.ops = append(o.ops, r)
		body := append(r.body, '\n')
		o.want[[2]int64{int64(g), seed}] = body
		return body, r
	}
	for i := 0; i < hotKeys; i++ {
		_, r := solve(w.hotKey(i))
		o.mux += r.mux
		o.counts.add(r.counts)
	}
	check := func(samples []sample) {
		for si := range samples {
			s := &samples[si]
			if s.fail != "" {
				continue
			}
			want, ok := o.want[[2]int64{int64(s.graph), s.seed}]
			if !ok {
				want, _ = solve(s.graph, s.seed)
			}
			got := s.body
			if s.kind == kindJob {
				got = append(append([]byte(nil), got...), '\n')
			}
			if !bytes.Equal(got, want) {
				s.fail = "wrong"
				out.problem("%s request %s seed %d: served body differs from direct allocation", s.kind, w.graphs[s.graph].name, s.seed)
			}
		}
	}
	for ri := range ph.rungs {
		check(ph.rungs[ri].samples)
	}
	check(ph.probe)
	return o
}

// rungReport prints a rung's latencies and traffic properties and,
// for the reference rung, records its metrics.
func rungReport(rr rungResult, graphs []input, rep *Report, ref bool, prefix string) {
	var hit, miss, accept, done, late []float64
	missBy := make([][]float64, len(graphs))
	var routerHits, backendHits, engine, jobs, failed int
	for _, s := range rr.samples {
		late = append(late, float64(s.late)/1e6)
		if s.fail != "" {
			failed++
			continue
		}
		ms := float64(s.latency) / 1e6
		switch {
		case s.kind == kindJob:
			jobs++
			accept = append(accept, float64(s.accept)/1e6)
			done = append(done, ms)
		case s.cache == "hit":
			hit = append(hit, ms)
			if s.shard == "router" {
				routerHits++
			} else {
				backendHits++
			}
		default:
			engine++
			miss = append(miss, ms)
			missBy[s.graph] = append(missBy[s.graph], ms)
		}
	}
	n := float64(len(rr.samples))
	sync := float64(routerHits + backendHits + engine)
	ok, slo := sloOK(rr)
	fmt.Printf("%srung %6.0f rps: n=%d failed=%d slo=%t (sync %s=%.1fms) hit p50=%.3fms miss p50=%.1fms job accept p50=%.1fms done p50=%.1fms\n",
		prefix, rr.rps, len(rr.samples), failed, ok, slo, slo.Value, median(hit), median(miss), median(accept), median(done))
	fmt.Printf("%srung %6.0f rps: share router-cache=%.3f backend-cache=%.3f engine=%.3f (of sync) jobs=%.3f late p50=%.2fms max=%.2fms backlog-growing=%t\n",
		prefix, rr.rps, ratio(float64(routerHits), sync), ratio(float64(backendHits), sync), ratio(float64(engine), sync),
		ratio(float64(jobs), n), median(late), quantile(late, 1), growing(rr.backlog, rr.rps))
	if !ref {
		return
	}
	var medians []float64
	for _, xs := range missBy {
		if len(xs) > 0 {
			medians = append(medians, median(xs))
		}
	}
	rep.Set("alloc_ms_geomean", geomean(medians), "ms")
	rep.Set("overhead_ms", median(hit), "ms")
	rep.Set("hit_ms_p50", median(hit), "ms")
	rep.SetTail("hit_ms_tail", tail(hit), "ms")
	rep.Set("miss_ms_p50", median(miss), "ms")
	rep.SetTail("miss_ms_tail", tail(miss), "ms")
	rep.Set("job_accept_ms_p50", median(accept), "ms")
	rep.Set("job_done_ms_p50", median(done), "ms")
	rep.Set("share_router_cache", ratio(float64(routerHits), sync), "ratio")
	rep.Set("share_backend_cache", ratio(float64(backendHits), sync), "ratio")
	rep.Set("share_engine", ratio(float64(engine), sync), "ratio")
	rep.Set("share_jobs", ratio(float64(jobs), n), "ratio")
	rep.Set("late_ms_max", quantile(late, 1), "ms")
}

// summarize reports a phase. Failures on the rung that broke the SLO
// are the overload the ladder looks for: they count in fail_ratio but
// not in the run's failed operations unless the output was wrong.
func (w *serveWorkload) summarize(ph servePhase, o serveOracle, rep *Report, out *outcome, prefix string) {
	maxRPS := 0.0
	total, failed, overload, repeats := 0, 0, 0, 0
	seen := map[[2]int64]bool{}
	for i := 0; i < hotKeys; i++ { // the warm-up sent every hot key
		g, seed := w.hotKey(i)
		seen[[2]int64{int64(g), seed}] = true
	}
	for i, rr := range ph.rungs {
		rungReport(rr, w.graphs, rep, i == 0, prefix)
		ok, _ := sloOK(rr)
		if ok {
			maxRPS = rr.rps
		}
		for _, s := range rr.samples {
			total++
			key := [2]int64{int64(s.graph), s.seed}
			if seen[key] {
				repeats++
			}
			seen[key] = true
			switch {
			case s.fail == "":
			case ok || s.fail == "wrong" || s.fail == "partial" || s.fail == "server":
				failed++
			default:
				overload++
			}
		}
	}
	// The probe is sequential: nothing it sends is overload.
	probeReport(ph.probe, w.graphs, rep, prefix)
	for _, s := range ph.probe {
		total++
		key := [2]int64{int64(s.graph), s.seed}
		if seen[key] {
			repeats++
		}
		seen[key] = true
		if s.fail != "" {
			failed++
		}
	}
	rep.Set("mux_sum", float64(o.mux), "count")
	rep.Set("max_rps_at_slo", maxRPS, "req/s")
	rep.Set("fail_ratio", ratio(float64(failed+overload), float64(total)), "ratio")
	rep.Set("fail_ratio_below_slo_break", ratio(float64(failed), float64(total)), "ratio")
	rep.Set("repeat_share", ratio(float64(repeats), float64(total)), "ratio")
	out.attempted += total
	out.failed += failed
}

// runServe runs the serve workload.
func runServe(o options) (*outcome, error) {
	graphs, err := loadServeGraphs()
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{ws: o.seed, graphs: graphs, ladder: o.ladder}
	out := &outcome{e2e: newReport()}
	var (
		f *fleet
		c *http.Client
	)
	boot := func(dir string, tr *Tracer, corr *correlator) error {
		var err error
		if f, err = startFleet(dir, tr, corr); err != nil {
			return err
		}
		c = loadClient()
		return w.warm(c, f.routerURL)
	}
	setup, err := timeSetups(func(k int) error {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
			c.CloseIdleConnections()
		}
		return boot(filepath.Join(o.tmp, fmt.Sprintf("setup%d", k)), nil, nil)
	})
	if err != nil {
		return nil, err
	}
	out.e2e.Set("setup_s", setup, "s")
	base := w.phase(f, c, o.seconds, false)
	out.e2e.Set("peak_rss_mb", base.refRSS, "MiB")
	c.CloseIdleConnections()
	if err := f.close(); err != nil {
		return nil, err
	}
	oracle := w.oracle(base, nil, out)
	w.summarize(base, oracle, out.e2e, out, "")
	cal.print()
	if !o.trace {
		return out, nil
	}

	tr := NewTracer()
	corr := &correlator{open: map[uint64]int{}}
	if err := boot(filepath.Join(o.tmp, "traced"), tr, corr); err != nil {
		return nil, err
	}
	tr.Reset() // keep the warm-up out of the layer means
	traced := w.phase(f, c, o.seconds, true)
	c.CloseIdleConnections()
	if err := f.close(); err != nil {
		return nil, err
	}
	trep := newReport()
	toracle := w.oracle(traced, tr, out)
	w.summarize(traced, toracle, trep, out, "traced ")
	printOverhead(out.e2e, trep)
	if oracle.mux != toracle.mux {
		out.problem("mux_sum differs between untraced (%d) and traced (%d) runs", oracle.mux, toracle.mux)
	}
	if oracle.counts != toracle.counts {
		out.problem("engine counts differ between untraced %+v and traced %+v runs", oracle.counts, toracle.counts)
	}

	layers := newReport()
	out.layers = layers
	setCounts(layers, toracle.counts)
	var effs []float64
	var moves int
	for _, op := range toracle.ops {
		effs = append(effs, op.eff)
		moves += op.counts.MovesTried
	}
	layers.Set("engine.parallel_eff", mean(effs), "ratio")
	layers.Set("core.cancel_to_return_ms", mean(cancelProbes(w.graphs, libRun{ops: toracle.ops}, 3, runtime.NumCPU())), "ms")
	spans := tr.Spans()
	spanLayers(layers, spans, moves)
	selfTable(spans)
	layers.Set("service.queue_depth_max", float64(traced.queueMax), "count")
	layers.Set("service.cache_hit_ratio", ratio(float64(traced.svc["cache_hits_total"]),
		float64(traced.svc["cache_hits_total"]+traced.svc["cache_misses_total"])), "ratio")
	layers.Set("service.singleflight_shared", float64(traced.svc["singleflight_shared_total"]), "count")
	layers.Set("service.queue_rejected", float64(traced.svc["queue_rejected_total"]), "count")
	layers.Set("service.partials", float64(traced.svc["partial_results_total"]), "count")
	layers.Set("cluster.cache_hit_ratio", ratio(float64(traced.rt["cache_hits_total"]),
		float64(traced.rt["cache_hits_total"]+traced.rt["cache_misses_total"])), "ratio")
	layers.Set("cluster.failovers", float64(traced.rt["failover_total"]), "count")

	var reqs [][]byte
	for _, rr := range traced.rungs {
		for _, s := range rr.samples {
			if s.kind == kindJob {
				reqs = append(reqs, wireRequest(w.graphs[s.graph], s.seed))
			}
		}
	}
	if len(reqs) == 0 { // a run too short to send a job
		g, seed := w.hotKey(0)
		reqs = append(reqs, wireRequest(w.graphs[g], seed))
	}
	var dirs []string
	for _, b := range f.backends {
		dirs = append(dirs, b.dir)
	}
	if err := journalProbe(layers, filepath.Join(o.tmp, "journal"), reqs, dirs); err != nil {
		return nil, err
	}
	return out, writeTrace(tr, o)
}

// journalProbe times, after the run, fsynced appends of the workload's
// own request bytes to a private journal in dir, and journal.Open
// replays of replayDirs (of dir itself when none are given).
func journalProbe(rep *Report, dir string, reqs [][]byte, replayDirs []string) error {
	jr, err := journal.Open(dir)
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		err := jr.Append(journal.Accepted(fmt.Sprintf("probe-%d", i), reqs[i%len(reqs)], "probe"), true)
		appends = append(appends, float64(time.Since(t0))/1e6)
		if err != nil {
			_ = jr.Close()
			return err
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	if len(replayDirs) == 0 {
		replayDirs = []string{dir, dir, dir}
	}
	var replays []float64
	for _, d := range replayDirs {
		t0 := time.Now()
		j, err := journal.Open(d)
		replays = append(replays, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	rep.Set("journal.append_sync_ms", median(appends), "ms")
	rep.Set("journal.replay_ms", median(replays), "ms")
	return nil
}
