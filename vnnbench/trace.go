package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call of the benchmark into a layer. Spans of one
// replayed request share Req; Parent is the index of the causing span
// (-1 for a request's root).
type span struct {
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans in memory; write saves them when the run ends.
// A disabled recorder times nothing, which is how the untraced replay
// measures the tracing overhead.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

func (r *recorder) since() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its index (-1 when disabled).
func (r *recorder) begin(name string, req, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, StartUS: r.since()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].EndUS = r.since()
	}
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, req, parent int, fn func()) {
	i := r.begin(name, req, parent)
	fn()
	r.end(i)
}

// layerTime is a layer's self time summed over its spans.
type layerTime struct {
	calls  int
	selfUS float64
}

// selfTimes aggregates, per span name, the span's duration minus the
// part of it covered by its children.
func (r *recorder) selfTimes() map[string]layerTime {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		lt := out[s.Name]
		lt.calls++
		lt.selfUS += s.EndUS - s.StartUS - child[i]
		out[s.Name] = lt
	}
	return out
}

// meanUS is the mean self time per call of the named layer (0 when the
// replay never called it).
func meanUS(st map[string]layerTime, name string) float64 {
	lt := st[name]
	if lt.calls == 0 {
		return 0
	}
	return lt.selfUS / float64(lt.calls)
}

// write saves the spans as JSON under dir and prints each layer's self
// time.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("trace: %d spans written to %s\n", len(r.spans), path)
	for _, n := range names {
		fmt.Printf("trace: self %-22s calls=%-6d total=%.1fus mean=%.2fus\n", n, st[n].calls, st[n].selfUS, meanUS(st, n))
	}
	return nil
}
