package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer, or derived from a duration the layer returned. Spans of one
// unit (query or streaming session) share Unit.
type span struct {
	Phase  string `json:"phase"` // the traced phase; ids are unique within it
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a unit's root span
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's origin.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Derived spans carry a duration the program returned (the
	// Response.Latency and stream Result fields), laid back to back from
	// the parent's start: their length is measured, their placement is
	// not.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced phases pay no more than a nil check.
type tracer struct {
	phase  string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(phase string) *tracer { return &tracer{phase: phase, origin: time.Now()} }

// add records a measured span and returns its id (-1 on a nil tracer).
func (t *tracer) add(unit, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	return t.put(span{Parent: parent, Unit: unit, Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// derive lays the named durations back to back under parent from its
// start, recording one derived span per non-zero duration, and returns
// their ids in order.
func (t *tracer) derive(unit, parent int, names []string, durs []time.Duration) []int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	at := t.spans[parent].Start
	t.mu.Unlock()
	ids := make([]int, len(names))
	for i, d := range durs {
		ids[i] = -1
		if d <= 0 {
			continue
		}
		ids[i] = t.put(span{Parent: parent, Unit: unit, Name: names[i], Start: at, End: at + d, Derived: true})
		at += d
	}
	return ids
}

func (t *tracer) put(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Phase, s.ID = t.phase, len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// setParent nests span id under parent after the fact, for spans
// recorded by different tiers before their caller's span closed.
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Parent = parent
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of it its children's
// intervals cover (overlapping children count once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// spanIndex groups spans for per-layer aggregation.
type spanIndex struct {
	spans    []span
	children map[int][]span
	byUnit   map[int][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{spans: spans, children: map[int][]span{}, byUnit: map[int][]span{}}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
		ix.byUnit[s.Unit] = append(ix.byUnit[s.Unit], s)
	}
	return ix
}

// named returns every span with the given name.
func (ix spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfOf is selfTime of s under its recorded children.
func (ix spanIndex) selfOf(s span) time.Duration { return selfTime(s, ix.children[s.ID]) }

// durMs returns each span's duration in milliseconds.
func durMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
