// Package metrics is the serving layers' metrics kit: an ordered
// registry of metric families, each registered once with its name,
// help text and type, one Prometheus text-format writer, and one flat
// snapshot derived from the same registrations.
//
// Updates are one atomic add (Int, Histogram) or one mutex-guarded map
// increment (Vec). Label values are formatted when the registry is
// written or snapshotted, never on the update path.
package metrics

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is an ordered list of metric families; registration order
// is exposition order. Register every family before the registry is
// first written or snapshotted.
type Registry struct {
	families []family
}

// family is one registered metric: its exposition header and a
// collector for its current samples.
type family struct {
	name, help, kind string
	samples          func() []sample
}

// sample is one series of a family: a name suffix ("_bucket", "_sum",
// "_count" or ""), an optional label pair and the value.
type sample struct {
	suffix, key, label string
	v                  int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(name, help, kind string, samples func() []sample) {
	r.families = append(r.families, family{name, help, kind, samples})
}

// Write renders every family in the Prometheus text exposition format:
// HELP and TYPE lines, then all of the family's samples as one group.
func (r *Registry) Write(w io.Writer) {
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.samples() {
			if s.key == "" {
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.suffix, s.v)
			} else {
				fmt.Fprintf(w, "%s%s{%s=%q} %d\n", f.name, s.suffix, s.key, s.label, s.v)
			}
		}
	}
}

// Snapshot returns every series as a flat map. A key is the family
// name without prefix, then _<label value> for a labelled series; a
// histogram contributes its _sum and _count, not its buckets.
func (r *Registry) Snapshot(prefix string) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range r.families {
		base := strings.TrimPrefix(f.name, prefix)
		for _, s := range f.samples() {
			switch {
			case s.suffix == "_bucket":
			case s.key == "":
				out[base+s.suffix] = s.v
			default:
				out[base+s.suffix+"_"+s.label] = s.v
			}
		}
	}
	return out
}

// Int is a counter or gauge: one atomic int64.
type Int struct{ atomic.Int64 }

// String renders the value, which makes an *Int an expvar.Var.
func (i *Int) String() string { return strconv.FormatInt(i.Load(), 10) }

// Counter registers a monotonically increasing count.
func (r *Registry) Counter(name, help string) *Int { return r.int(name, help, "counter") }

// Gauge registers a value that goes up and down.
func (r *Registry) Gauge(name, help string) *Int { return r.int(name, help, "gauge") }

func (r *Registry) int(name, help, kind string) *Int {
	i := new(Int)
	r.add(name, help, kind, func() []sample { return []sample{{v: i.Load()}} })
	return i
}

// GaugeFunc registers a gauge whose value f reads at collection time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(name, help, "gauge", func() []sample { return []sample{{v: f()}} })
}

// Vec is a family with one label: a map from label value to count.
// Its series are collected in ascending label order.
type Vec[K cmp.Ordered] struct {
	mu sync.Mutex
	m  map[K]int64 // guarded by mu
}

// CounterVec registers a counter with one label, named key.
func CounterVec[K cmp.Ordered](r *Registry, name, help, key string) *Vec[K] {
	return newVec[K](r, name, help, "counter", key)
}

// GaugeVec registers a gauge with one label, named key.
func GaugeVec[K cmp.Ordered](r *Registry, name, help, key string) *Vec[K] {
	return newVec[K](r, name, help, "gauge", key)
}

func newVec[K cmp.Ordered](r *Registry, name, help, kind, key string) *Vec[K] {
	v := &Vec[K]{m: make(map[K]int64)}
	r.add(name, help, kind, func() []sample { return v.samples(key) })
	return v
}

// Add adds d to the series labelled k.
func (v *Vec[K]) Add(k K, d int64) {
	v.mu.Lock()
	v.m[k] += d
	v.mu.Unlock()
}

// Set sets the series labelled k to x.
func (v *Vec[K]) Set(k K, x int64) {
	v.mu.Lock()
	v.m[k] = x
	v.mu.Unlock()
}

func (v *Vec[K]) samples(key string) []sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	labels := make([]K, 0, len(v.m))
	for k := range v.m {
		labels = append(labels, k)
	}
	slices.Sort(labels)
	out := make([]sample, len(labels))
	for i, k := range labels {
		out[i] = sample{key: key, label: fmt.Sprint(k), v: v.m[k]}
	}
	return out
}

// Histogram is a fixed-bucket histogram of durations in whole
// milliseconds, collected in Prometheus's cumulative-bucket convention.
type Histogram struct {
	bounds []int64        // bucket upper bounds in ms, ascending
	les    []string       // bounds formatted as le labels, then "+Inf"
	counts []atomic.Int64 // per bucket, non-cumulative; the last is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// Histogram registers a histogram with the given bucket upper bounds
// in milliseconds, ascending.
func (r *Registry) Histogram(name, help string, boundsMS ...int64) *Histogram {
	h := &Histogram{bounds: boundsMS, counts: make([]atomic.Int64, len(boundsMS)+1)}
	for _, b := range boundsMS {
		h.les = append(h.les, strconv.FormatInt(b, 10))
	}
	h.les = append(h.les, "+Inf")
	r.add(name, help, "histogram", h.samples)
	return h
}

// Observe records one duration, truncated to whole milliseconds. A
// value equal to a bound lands in that bound's bucket.
func (h *Histogram) Observe(d time.Duration) {
	ms := d.Milliseconds()
	i, _ := slices.BinarySearch(h.bounds, ms)
	h.counts[i].Add(1)
	h.sum.Add(ms)
	h.count.Add(1)
}

func (h *Histogram) samples() []sample {
	out := make([]sample, 0, len(h.counts)+2)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out = append(out, sample{suffix: "_bucket", key: "le", label: h.les[i], v: cum})
	}
	return append(out, sample{suffix: "_sum", v: h.sum.Load()}, sample{suffix: "_count", v: h.count.Load()})
}
