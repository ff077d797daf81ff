package metrics

import (
	"bytes"
	"expvar"
	"maps"
	"sync"
	"testing"
	"time"
)

func TestWrite(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_requests_total", "Requests.").Add(3)
	codes := CounterVec[int](r, "x_responses_total", "Responses by code.", "code")
	codes.Add(503, 1)
	codes.Add(200, 2)
	r.GaugeFunc("x_entries", "Entries.", func() int64 { return 7 })
	up := GaugeVec[string](r, "x_up", "Up.", "backend")
	up.Set("http://b", 0)
	up.Set("http://a", 1)
	h := r.Histogram("x_ms", "Latency.", 1, 5)
	h.Observe(3 * time.Millisecond)
	h.Observe(9 * time.Millisecond)

	var b bytes.Buffer
	r.Write(&b)
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total 3
# HELP x_responses_total Responses by code.
# TYPE x_responses_total counter
x_responses_total{code="200"} 2
x_responses_total{code="503"} 1
# HELP x_entries Entries.
# TYPE x_entries gauge
x_entries 7
# HELP x_up Up.
# TYPE x_up gauge
x_up{backend="http://a"} 1
x_up{backend="http://b"} 0
# HELP x_ms Latency.
# TYPE x_ms histogram
x_ms_bucket{le="1"} 0
x_ms_bucket{le="5"} 1
x_ms_bucket{le="+Inf"} 2
x_ms_sum 12
x_ms_count 2
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHistogramBounds: a value equal to a bound lands in that bound's
// bucket; one above the last bound lands only in +Inf.
func TestHistogramBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "Latency.", 1, 5, 10)
	h.Observe(5 * time.Millisecond)
	h.Observe(5*time.Millisecond + 999*time.Microsecond) // truncates to 5
	h.Observe(11 * time.Millisecond)
	got := map[string]int64{}
	for _, s := range h.samples() {
		got[s.suffix+s.label] = s.v
	}
	want := map[string]int64{
		"_bucket1": 0, "_bucket5": 2, "_bucket10": 2, "_bucket+Inf": 3,
		"_sum": 21, "_count": 3,
	}
	if !maps.Equal(got, want) {
		t.Errorf("samples %v, want %v", got, want)
	}
}

// TestSnapshot pins the one snapshot rule: the family name minus the
// prefix, _<label value> for a labelled series, and _sum and _count
// (never buckets) for a histogram.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("salsa_hits_total", "Hits.").Add(4)
	r.Gauge("salsa_depth", "Depth.").Add(-2)
	r.GaugeFunc("salsa_entries", "Entries.", func() int64 { return 9 })
	codes := CounterVec[int](r, "salsa_http_responses_total", "Responses.", "code")
	codes.Add(200, 5)
	codes.Add(408, 1)
	r.Histogram("salsa_lat_ms", "Latency.", 10).Observe(25 * time.Millisecond)
	r.Counter("other_total", "Outside the prefix.").Add(1)

	got := r.Snapshot("salsa_")
	want := map[string]int64{
		"hits_total":               4,
		"depth":                    -2,
		"entries":                  9,
		"http_responses_total_200": 5,
		"http_responses_total_408": 1,
		"lat_ms_sum":               25,
		"lat_ms_count":             1,
		"other_total":              1,
	}
	if !maps.Equal(got, want) {
		t.Errorf("snapshot %v, want %v", got, want)
	}
}

// TestConcurrentUpdates: updates from many goroutines, with the
// registry written and snapshotted meanwhile, lose nothing (run under
// -race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "C.")
	v := CounterVec[string](r, "v_total", "V.", "k")
	h := r.Histogram("h_ms", "H.", 1, 2)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b"}[w%2]
			for i := 0; i < each; i++ {
				c.Add(1)
				v.Add(key, 1)
				h.Observe(time.Duration(i%3) * time.Millisecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				r.Write(&bytes.Buffer{})
				r.Snapshot("")
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped

	got := r.Snapshot("")
	if got["c_total"] != workers*each || got["v_total_a"] != workers*each/2 || got["v_total_b"] != workers*each/2 {
		t.Errorf("lost updates: %v", got)
	}
	if got["h_ms_count"] != workers*each {
		t.Errorf("h_ms_count = %d, want %d", got["h_ms_count"], workers*each)
	}
}

// TestIntIsExpvarVar: an *Int publishes to expvar as its bare value.
func TestIntIsExpvarVar(t *testing.T) {
	c := NewRegistry().Counter("c_total", "C.")
	c.Add(42)
	var v expvar.Var = c
	if got := v.String(); got != "42" {
		t.Errorf("expvar value %q, want 42", got)
	}
}
