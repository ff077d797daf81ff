package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded around a call into a layer.
// Parent is the ID of the span that caused it (0 for a root); spans of
// one operation share their root's ID as Op.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Label names the operation's input (graph, rung) on root spans.
	Label string `json:"label,omitempty"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced run: every method is a no-op and Begin returns 0.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose offsets count from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Record stores a finished span and returns its ID.
func (t *Tracer) Record(name, label string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Label: label,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// Begin opens a span that End closes; children may be recorded under
// its ID before it ends.
func (t *Tracer) Begin(name, label string, parent int) int {
	now := time.Now()
	return t.Record(name, label, parent, now, now)
}

// Rename sets the name of a span opened by Begin, for spans whose kind
// is known only when they end.
func (t *Tracer) Rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0)
	t.mu.Unlock()
}

// Reset drops every span recorded so far, such as those of a warm-up.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children (parallel engine workers) are counted once, and
// a child running past its parent's end is clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]Span, len(spans))
	for _, s := range spans {
		if i, ok := index[s.Parent]; ok {
			children[i] = append(children[i], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
