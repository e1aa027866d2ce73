package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval, timed from the benchmark around a call
// into a layer. Parent 0 marks the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(),
		EndNS:   end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close sets it. Spans
// opened this way are the tree's inner nodes (workload, pass, run).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: the benchmark makes every
// call it times in sequence.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// validateSpans checks the tree: ids are dense, every parent exists and
// encloses its child, and no self time is negative.
func validateSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) is outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for id, ns := range selfTimes(spans) {
		if ns < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %dns", id, spans[id-1].Name, ns)
		}
	}
	return nil
}

// writeJSON writes v as indented JSON to dir/name.
func writeJSON(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFile(dir, name, data)
}

func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
