package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

func tinyCfg() Config {
	return Config{Scale: 0.0005, Budget: 5 * time.Second, Seed: 1}
}

func TestApproachRegistryMatchesTableII(t *testing.T) {
	want := map[string][3]bool{ // ∪, −, ∩
		"LAWA": {true, true, true},
		"NORM": {true, true, true},
		"TPDB": {true, false, true},
		"OIP":  {false, false, true},
		"TI":   {false, false, true},
	}
	as := Approaches()
	if len(as) != len(want) {
		t.Fatalf("registry size %d", len(as))
	}
	for _, a := range as {
		w, ok := want[a.Name]
		if !ok {
			t.Fatalf("unexpected approach %s", a.Name)
		}
		got := [3]bool{a.Supports[core.OpUnion], a.Supports[core.OpExcept], a.Supports[core.OpIntersect]}
		if got != w {
			t.Errorf("%s supports %v, want %v", a.Name, got, w)
		}
	}
	if _, ok := ApproachByName("LAWA"); !ok {
		t.Error("lookup")
	}
	if _, ok := ApproachByName("nope"); ok {
		t.Error("bogus lookup")
	}
}

// TestApproachesProduceEqualOutputCounts: every approach that runs an
// operation reports the same output cardinality — a cheap end-to-end
// equivalence check at the harness level.
func TestApproachesProduceEqualOutputCounts(t *testing.T) {
	r, s := datagen.FixedOverlapPair(500, 4, 2)
	for _, op := range []core.Op{core.OpUnion, core.OpIntersect, core.OpExcept} {
		counts := map[string]int{}
		for _, a := range Approaches() {
			if !a.Supports[op] {
				continue
			}
			n, err := a.Run(op, r, s)
			if err != nil {
				t.Fatalf("%s %v: %v", a.Name, op, err)
			}
			counts[a.Name] = n
		}
		first := -1
		for name, n := range counts {
			if first == -1 {
				first = n
				continue
			}
			if n != first {
				t.Fatalf("%v: cardinality disagreement: %v", op, counts)
			}
			_ = name
		}
	}
}

func TestSweepBudgetCutsOff(t *testing.T) {
	slowGen := func() (*relation.Relation, *relation.Relation) {
		return datagen.FixedOverlapPair(3000, 1, 1)
	}
	sw := Sweep{
		Op: core.OpIntersect,
		Points: []Point{
			{X: 1, Gen: slowGen},
			{X: 2, Gen: slowGen},
		},
		Budget: time.Nanosecond, // everything overruns instantly
	}
	series := sw.Run([]string{"NORM"}, nil)
	if len(series) != 1 || len(series[0].Cells) != 2 {
		t.Fatalf("series shape: %+v", series)
	}
	if series[0].Cells[1].Skipped != true {
		t.Error("second point should be skipped after the first overran")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	wantNames := []string{
		"table2", "fig7a", "fig7b", "fig7c", "fig8", "table3", "fig9a",
		"fig9b", "table4", "fig10a", "fig10b", "fig10c", "fig11a", "fig11b", "fig11c",
		"trace-overhead", "segment-vs-heap",
	}
	got := Names()
	if strings.Join(got, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("experiments: %v", got)
	}
	if len(SortedNames()) != len(wantNames) {
		t.Error("sorted names")
	}
	if _, ok := ExperimentByName("fig8"); !ok {
		t.Error("lookup fig8")
	}
	if _, ok := ExperimentByName("fig99"); ok {
		t.Error("bogus experiment")
	}
}

// TestTinyEndToEnd runs a cut-down version of each experiment to make sure
// every code path executes and renders.
func TestTinyEndToEnd(t *testing.T) {
	cfg := tinyCfg()
	for _, name := range []string{"table2", "table3", "fig7a", "fig9b", "trace-overhead"} {
		exp, ok := ExperimentByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		res := exp.Run(cfg)
		var buf bytes.Buffer
		res.Print(&buf)
		if !strings.Contains(buf.String(), res.Name) {
			t.Errorf("%s: print output lacks the experiment name:\n%s", name, buf.String())
		}
		var csv bytes.Buffer
		res.PrintCSV(&csv)
		if name == "trace-overhead" {
			// Tracing must never change the result stream.
			off, on := res.Series[0].Cells, res.Series[1].Cells
			for i := range off {
				if off[i].Output != on[i].Output {
					t.Errorf("trace-overhead %s: %d tuples untraced, %d traced", off[i].Label, off[i].Output, on[i].Output)
				}
			}
		}
		if name == "fig7a" {
			if !strings.HasPrefix(csv.String(), "tuples,LAWA_ms") {
				t.Errorf("csv header: %q", csv.String())
			}
			if res.SpeedupTable() == "" {
				t.Error("speedup digest empty")
			}
		}
	}
}

// TestWriteJSON pins the machine-readable output shape tpbench -json
// and the CI bench gate consume.
func TestWriteJSON(t *testing.T) {
	cfg := tinyCfg()
	res := Table2(cfg)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Result{res}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []ResultJSON `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].Name != "table2" {
		t.Fatalf("round-trip: %+v", doc)
	}
	if doc.Experiments[0].Series == nil {
		t.Fatal("series must be [] rather than null for downstream jq")
	}
}
