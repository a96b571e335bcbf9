package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The harness-side tracer. Spans are recorded from the benchmark's own
// files, around the calls into each layer's public functions; nothing
// inside the program is instrumented by this PR. Spans stay in memory
// until the run ends (tracer.write). A nil *tracer records nothing, so
// the same pipeline code runs traced and untraced — the ratio of the
// two walls is bench.trace_overhead_ratio.

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since tracer creation
	EndNs   int64  `json:"endNs"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (also the parent handle for
// children). On a nil tracer it returns -1 and records nothing.
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[i])
	}
	return out
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"selfMs"` // rounded to the microsecond
	Spans    []span             `json:"spans"`
}

// write stores the spans and the per-name self-time summary under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Seed: seed, SelfMs: map[string]float64{}, Spans: t.spans}
	for name, d := range t.selfTimes() {
		tf.SelfMs[name] = float64(d.Microseconds()) / 1000
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
