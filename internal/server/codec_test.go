package server

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

func TestCodecRoundTripBase(t *testing.T) {
	r := relation.New(relation.NewSchema("stock", "Product", "Store"))
	r.AddBase(relation.NewFact("milk", "s1"), "c1", 1, 4, 0.6)
	r.AddBase(relation.NewFact("bread", "s2"), "c2", 2, 9, 0.25)
	r.Sort()

	rj := EncodeRelation(r, 42)
	if rj.Version != 42 || rj.Name != "stock" || len(rj.Tuples) != 2 {
		t.Fatalf("encoded header wrong: %+v", rj)
	}
	// Bare-variable tuples need no varProbs.
	for _, tj := range rj.Tuples {
		if tj.VarProbs != nil {
			t.Fatalf("base tuple carries varProbs: %+v", tj)
		}
	}

	back, err := DecodeRelation(rj, "")
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(r, back); d != "" {
		t.Fatalf("round trip differs: %s", d)
	}
}

func TestCodecRoundTripDerivedLineage(t *testing.T) {
	// Build a derived relation with real formula lineage: (c - (a | b)).
	a := relation.New(relation.NewSchema("a", "P"))
	a.AddBase(relation.NewFact("milk"), "a1", 2, 10, 0.3)
	b := relation.New(relation.NewSchema("b", "P"))
	b.AddBase(relation.NewFact("milk"), "b1", 4, 12, 0.4)
	c := relation.New(relation.NewSchema("c", "P"))
	c.AddBase(relation.NewFact("milk"), "c1", 1, 14, 0.6)

	ab, err := core.Apply(core.OpUnion, a, b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Apply(core.OpExcept, c, ab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rj := EncodeRelation(out, 0)
	// Formula tuples must ship their variable marginals.
	sawFormula := false
	for _, tj := range rj.Tuples {
		if strings.ContainsAny(tj.Lineage, "∧∨¬") {
			sawFormula = true
			if len(tj.VarProbs) == 0 {
				t.Fatalf("formula tuple without varProbs: %+v", tj)
			}
		}
	}
	if !sawFormula {
		t.Fatal("test setup: expected at least one formula-lineage tuple")
	}

	back, err := DecodeRelation(rj, "")
	if err != nil {
		t.Fatal(err)
	}
	// Full structural round trip: facts, intervals, lineage formulas
	// (syntactically) and probabilities all survive — unlike CSV.
	if d := relation.Diff(out, back); d != "" {
		t.Fatalf("derived round trip differs: %s", d)
	}
}

func TestCodecRoundTripRandomRelations(t *testing.T) {
	// Property over generator shapes: JSON round trip is lossless.
	for seed := int64(0); seed < 8; seed++ {
		r := datagen.Synthetic(datagen.SyntheticConfig{
			Name: "r", NumTuples: 200, NumFacts: 1 + int(seed*3),
			MaxLen: 5, MaxGap: 3, Seed: seed,
		})
		blob, err := json.Marshal(EncodeRelation(r, 0))
		if err != nil {
			t.Fatal(err)
		}
		var rj RelationJSON
		if err := json.Unmarshal(blob, &rj); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRelation(rj, "")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := relation.Diff(r, back); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

func TestDecodeRelationErrors(t *testing.T) {
	base := func() RelationJSON {
		return RelationJSON{
			Name:  "r",
			Attrs: []string{"P"},
			Tuples: []TupleJSON{
				{Fact: []string{"milk"}, Lineage: "x1", Ts: 1, Te: 4, Prob: 0.5},
			},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*RelationJSON)
		wantSub string
	}{
		{"no name", func(r *RelationJSON) { r.Name = "" }, "no name"},
		{"no attrs", func(r *RelationJSON) { r.Attrs = nil }, "at least one attribute"},
		{"fact arity", func(r *RelationJSON) { r.Tuples[0].Fact = []string{"a", "b"} }, "2 values"},
		{"empty fact value", func(r *RelationJSON) { r.Tuples[0].Fact = []string{""} }, "empty fact value"},
		{"empty interval", func(r *RelationJSON) { r.Tuples[0].Te = 1 }, "empty interval"},
		{"bad prob", func(r *RelationJSON) { r.Tuples[0].Prob = 1.5 }, "outside [0,1]"},
		{"unparsable lineage", func(r *RelationJSON) { r.Tuples[0].Lineage = "x1∧" }, "lineage"},
		{"null lineage", func(r *RelationJSON) { r.Tuples[0].Lineage = "null" }, "null lineage"},
		{"missing var prob", func(r *RelationJSON) { r.Tuples[0].Lineage = "x1∧y1" }, "no varProbs entry"},
		{"bad var prob", func(r *RelationJSON) {
			r.Tuples[0].Lineage = "x1∧y1"
			r.Tuples[0].VarProbs = map[string]float64{"x1": 0.5, "y1": 2}
		}, "outside (0,1]"},
	}
	for _, c := range cases {
		rj := base()
		c.mutate(&rj)
		_, err := DecodeRelation(rj, "")
		if err == nil {
			t.Errorf("%s: want error, got nil", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestDecodeRelationRefusesDeepFormulas: a body may hold a formula of
// any depth, but the decoder builds trees of bounded height only. Each
// way to nest — parentheses, a run of negations, an operator chain — is
// accepted up to 1<<16 levels and refused one level beyond, with an
// error (a 400), not a stack overflow.
func TestDecodeRelationRefusesDeepFormulas(t *testing.T) {
	const bound = 1 << 16
	chain := func(n int) (string, map[string]float64) {
		var b strings.Builder
		probs := make(map[string]float64, n)
		for i := range n {
			if i > 0 {
				b.WriteString("∧")
			}
			id := "d" + strconv.Itoa(i)
			b.WriteString(id)
			probs[id] = 0.5
		}
		return b.String(), probs
	}
	shapes := []struct {
		name  string
		build func(levels int) (string, map[string]float64)
	}{
		{"parentheses", func(n int) (string, map[string]float64) {
			return strings.Repeat("(", n) + "d0" + strings.Repeat(")", n), map[string]float64{"d0": 0.5}
		}},
		{"negations", func(n int) (string, map[string]float64) {
			return strings.Repeat("¬", n) + "d0", map[string]float64{"d0": 0.5}
		}},
		{"chain", func(n int) (string, map[string]float64) { return chain(n + 1) }},
	}
	for _, sh := range shapes {
		for _, levels := range []int{bound, bound + 1} {
			formula, probs := sh.build(levels)
			rj := RelationJSON{Name: "r", Attrs: []string{"P"}, Tuples: []TupleJSON{
				{Fact: []string{"milk"}, Lineage: formula, VarProbs: probs, Ts: 1, Te: 4, Prob: 0.5},
			}}
			_, err := DecodeRelation(rj, "")
			switch {
			case levels == bound && err != nil:
				t.Errorf("%s, %d levels: %v, want accepted", sh.name, levels, err)
			case levels > bound && (err == nil || !strings.Contains(err.Error(), "nested deeper")):
				t.Errorf("%s, %d levels: error %v, want one about nesting", sh.name, levels, err)
			}
		}
	}
}

func TestDecodeRelationNameOverride(t *testing.T) {
	rj := EncodeRelation(rel1("body", "x1"), 0)
	r, err := DecodeRelation(rj, "url")
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.Name != "url" {
		t.Fatalf("name = %q, want URL override", r.Schema.Name)
	}
}
