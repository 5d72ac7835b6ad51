package main

import (
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory: one span per call the
// benchmark makes into a layer, with the span that caused it. A nil tracer
// records nothing, so the untraced path pays one nil check per operation.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

type span struct {
	id, parent int
	name       string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name,
		start: start.Sub(t.start), end: end.Sub(t.start)})
	return id
}

// spanSummary aggregates spans by name. Self time is a span's duration
// minus the time its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[string]*spanSummary{}
	var names []string
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &spanSummary{Name: s.name}
			by[s.name] = a
			names = append(names, s.name)
		}
		d := s.end - s.start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		self := d - child[s.id]
		if self < 0 {
			self = 0
		}
		a.SelfMs += float64(self) / 1e6
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}
