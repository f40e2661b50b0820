package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer of the program.
// Spans of one request share Req; Parent is the enclosing span's ID (0 at
// the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them as JSON at exit. A
// disabled tracer records nothing and start returns 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) start(name string, parent int, req string) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, for each span called name, its length minus the time
// its direct children cover (s). Children of one parent never overlap in
// this harness: every traced layer call is made serially within its
// parent.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start-child[s.ID]).Seconds())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
