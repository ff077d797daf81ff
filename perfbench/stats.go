package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := nearestRank(q, len(s)) - 1
	return s[max(0, min(k, len(s)-1))]
}

// nearestRank is the 1-based rank of the q-quantile among n samples,
// with a tolerance for q*n landing a rounding error above an integer.
func nearestRank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// Tail is the highest percentile of a sample that still has at least
// ten samples beyond it, with the sample count it was taken from.
type Tail struct {
	Percentile float64
	Value      float64
	Count      int
}

// tail picks the highest candidate percentile with at least ten samples
// above its nearest rank. A sample too small for any candidate reports
// its maximum as percentile 100.
func tail(xs []float64) Tail {
	n := len(xs)
	for _, p := range tailPercentiles {
		rank := nearestRank(p/100, n)
		if n-rank >= 10 {
			return Tail{Percentile: p, Value: quantile(xs, p/100), Count: n}
		}
	}
	return Tail{Percentile: 100, Value: quantile(xs, 1), Count: n}
}

func (t Tail) String() string {
	return fmt.Sprintf("p%g of %d samples", t.Percentile, t.Count)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report collects the metrics one run prints, in insertion order.
type Report struct {
	names  []string
	values map[string]Metric
	notes  map[string]string
}

func newReport() *Report {
	return &Report{values: map[string]Metric{}, notes: map[string]string{}}
}

// Set records a metric; a later Set of the same name replaces it.
func (r *Report) Set(name string, value float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = Metric{Value: value, Unit: unit}
}

// SetTail records a tail metric and notes which percentile it is.
func (r *Report) SetTail(name string, t Tail, unit string) {
	r.Set(name, t.Value, unit)
	r.notes[name] = t.String()
}

// Get returns a recorded metric.
func (r *Report) Get(name string) (Metric, bool) {
	m, ok := r.values[name]
	return m, ok
}
