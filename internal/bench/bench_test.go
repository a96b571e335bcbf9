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
	}
	got := Names()
	if strings.Join(got, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("experiments: %v", got)
	}
	if _, ok := ExperimentByName("fig8"); !ok {
		t.Error("lookup fig8")
	}
	if _, ok := ExperimentByName("fig99"); ok {
		t.Error("bogus experiment")
	}
}

// TestTinyEndToEnd runs every experiment cut down to tinyCfg, so every
// code path executes and renders, and requires every approach that ran a
// sweep point to report the same output cardinality there.
func TestTinyEndToEnd(t *testing.T) {
	cfg := tinyCfg()
	for _, exp := range Experiments() {
		res := exp.Run(cfg)
		var buf bytes.Buffer
		res.Print(&buf)
		if !strings.Contains(buf.String(), res.Name) {
			t.Errorf("%s: print output lacks the experiment name:\n%s", exp.Name, buf.String())
		}
		for _, s := range res.Series {
			for i, c := range s.Cells {
				first := res.Series[0].Cells[i]
				if c.Skipped || first.Skipped {
					continue
				}
				if c.Output != first.Output {
					t.Errorf("%s at %s: %s returns %d tuples, %s %d",
						exp.Name, c.label(), s.Approach, c.Output, res.Series[0].Approach, first.Output)
				}
			}
		}
	}
}

// TestSweepLabelsAreDistinct: every row of a size sweep is told apart by
// its label, in the printed table and in -json, at tpbench's default
// scale (Fig. 7 then runs 400–4,000 tuples).
func TestSweepLabelsAreDistinct(t *testing.T) {
	res := fig7(core.OpIntersect)(Config{Scale: 0.02, Budget: 50 * time.Millisecond, Seed: 1})
	seen := map[string]bool{}
	for _, c := range res.JSON().Series[0].Cells {
		if seen[c.Label] {
			t.Errorf("label %q names two sweep points", c.Label)
		}
		seen[c.Label] = true
	}
	if len(seen) != len(fig7Sizes) {
		t.Errorf("%d distinct labels, want %d", len(seen), len(fig7Sizes))
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
