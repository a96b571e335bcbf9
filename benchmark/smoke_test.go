package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSmoke runs all four workloads end to end and traced at 1% scale
// with one-second windows — tpserve child, kill/restart cycles and the
// oracle check included — and asserts that every named metric comes out
// present and finite and that the results file parses. It keeps the
// harness building and running as the packages it calls into move.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tpserve")
	}
	out := t.TempDir()
	cfg := config{seed: 1, seconds: 1, trace: -1, scale: 0.01, out: out}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	recs, err := loadRecords(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	// Which workloads report each end-to-end metric that is not gated.
	only := map[string][]string{
		"op_p95_ms":                {"sparse-stream", "durable-mixed"},
		"ttft_p50_ms":              {"dense-stream", "sparse-stream"},
		"put_ack_p50_ms":           {"durable-mixed"},
		"put_ack_p95_ms":           {"durable-mixed"},
		"restart_s":                {"durable-mixed"},
		"disk_bytes_per_user_byte": {"durable-mixed"},
	}
	for _, w := range workloads {
		wr := recs[0].Workloads[w.name]
		if wr == nil {
			t.Fatalf("%s: no record", w.name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, wr.Attempted, wr.Failed)
		}
		check := func(set metricSet, d metricDef, nonZero bool) {
			m, ok := set[d.name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", w.name, d.name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", w.name, d.name, m.Value)
			case nonZero && m.Value <= 0:
				t.Errorf("%s: %s = %v, want positive", w.name, d.name, m.Value)
			case m.Unit != d.unit:
				t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
			}
		}
		for _, d := range e2eMetrics {
			if d.gated || slices.Contains(only[d.name], w.name) {
				check(wr.E2E, d, true)
			} else if _, present := wr.E2E[d.name]; present {
				t.Errorf("%s: reports %s, which is not defined on it", w.name, d.name)
			}
		}
		for _, d := range layerMetrics {
			check(wr.Layers, d, false)
		}
		if _, err := os.Stat(wr.Trace); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's registry in
// step: same workloads, same gated end-to-end metrics with the same
// units, directions and bounds, same per-layer metrics.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q, harness has %q (or the why differs)", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, harness has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the harness's %v", kind, d.name, d.bound)
			}
		}
	}
	var gated []metricDef
	for _, d := range e2eMetrics {
		if d.gated {
			gated = append(gated, d)
		}
	}
	same("end_to_end", bj.EndToEnd, gated, true)
	same("per_layer", bj.PerLayer, layerMetrics, false)
}
