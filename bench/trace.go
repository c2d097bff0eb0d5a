package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer. Spans of one
// run or episode share Root (the id of its outermost span); Count carries
// the work the interval covered (steps, bytes or records).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Root    int     `json:"root"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Count   int     `json:"count"`
}

// tracer keeps spans in memory and writes them out once, when the traced
// run ends. A nil tracer records nothing, so the untraced run pays one
// pointer test per call site. The serve clients record concurrently.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span under parent (0 = a new root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name,
		StartUS: float64(now.Nanoseconds()) / 1e3})
	return id
}

// end closes the span and attaches its work count.
func (t *tracer) end(id, count int) {
	if t == nil {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	s := &t.spans[id-1]
	s.DurUS = now - s.StartUS
	s.Count = count
	t.mu.Unlock()
}

// spanSummary aggregates one span name: self time is the span's duration
// minus the part of it its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.DurUS
	}
	byName := map[string]*spanSummary{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
		}
		a.Spans++
		a.Count += s.Count
		a.TotalMS += s.DurUS / 1e3
		a.SelfMS += (s.DurUS - child[s.ID]) / 1e3
	}
	out := make([]spanSummary, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their per-name summary as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{t.summary(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
