package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/baseline/norm"
	"github.com/tpset/tpset/internal/baseline/oip"
	"github.com/tpset/tpset/internal/baseline/timeline"
	"github.com/tpset/tpset/internal/baseline/tpdbg"
	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/ref"
	"github.com/tpset/tpset/internal/relation"
)

// randomRelations builds a random duplicate-free pair over a small time
// domain so the O(n·|ΩT|) oracle stays fast. The distribution exercises
// gaps, adjacency, containment and exact-boundary coincidences.
func randomRelations(rng *rand.Rand, maxTuples int) (r, s *relation.Relation) {
	facts := []string{"alpha", "beta", "gamma"}
	build := func(name string) *relation.Relation {
		rel := relation.New(relation.NewSchema(name, "F"))
		n := 1 + rng.Intn(maxTuples)
		cursors := make(map[string]interval.Time)
		for i := 0; i < n; i++ {
			f := facts[rng.Intn(len(facts))]
			ts := cursors[f] + interval.Time(rng.Intn(4))
			te := ts + 1 + interval.Time(rng.Intn(5))
			cursors[f] = te
			rel.AddBase(relation.NewFact(f), fmt.Sprintf("%s%d", name, i), ts, te, 0.05+0.9*rng.Float64())
		}
		return rel
	}
	return build("x"), build("y")
}

// TestLAWAMatchesOracle cross-validates all three LAWA set operations
// against the per-snapshot reference implementation of Def. 3 on hundreds
// of random inputs.
func TestLAWAMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		r, s := randomRelations(rng, 12)
		for _, op := range []core.Op{core.OpUnion, core.OpIntersect, core.OpExcept} {
			got, err := core.Apply(op, r, s, core.Options{Validate: true})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, op, err)
			}
			want := ref.Apply(op, r, s)
			if d := relation.Diff(got, want); d != "" {
				t.Fatalf("trial %d %v: LAWA vs oracle: %s\nr=%s\ns=%s\ngot=%s\nwant=%s",
					trial, op, d, r, s, got, want)
			}
		}
	}
}

// The baselines are checked against the Def. 3 oracle, not against
// LAWA, so a LAWA bug fails TestLAWAMatchesOracle alone instead of
// blaming every baseline.

// TestNormMatchesOracle cross-validates the NORM baseline on all three ops.
func TestNormMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		r, s := randomRelations(rng, 12)
		for _, op := range []core.Op{core.OpUnion, core.OpIntersect, core.OpExcept} {
			want := ref.Apply(op, r, s)
			got := norm.Apply(op, r, s)
			if d := relation.Diff(got, want); d != "" {
				t.Fatalf("trial %d %v: NORM vs oracle: %s\nr=%s\ns=%s\ngot=%s\nwant=%s",
					trial, op, d, r, s, got, want)
			}
		}
	}
}

// TestTPDBMatchesOracle cross-validates the TPDB grounding baseline on
// the operations it supports (∩, ∪) and checks that −Tp is rejected.
func TestTPDBMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		r, s := randomRelations(rng, 12)
		for _, op := range []core.Op{core.OpUnion, core.OpIntersect} {
			want := ref.Apply(op, r, s)
			got, err := tpdbg.Apply(op, r, s)
			if err != nil {
				t.Fatal(err)
			}
			if d := relation.Diff(got, want); d != "" {
				t.Fatalf("trial %d %v: TPDB vs oracle: %s\nr=%s\ns=%s\ngot=%s\nwant=%s",
					trial, op, d, r, s, got, want)
			}
		}
		if _, err := tpdbg.Apply(core.OpExcept, r, s); err == nil {
			t.Fatal("TPDB accepted set difference; Table II says it must not")
		}
	}
}

// TestTimelineAndOIPMatchOracle cross-validates the intersection-only
// baselines.
func TestTimelineAndOIPMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		r, s := randomRelations(rng, 12)
		want := ref.Apply(core.OpIntersect, r, s)
		if got := timeline.Intersect(r, s); relation.Diff(got, want) != "" {
			t.Fatalf("trial %d: TI vs oracle: %s\nr=%s\ns=%s\ngot=%s\nwant=%s",
				trial, relation.Diff(got, want), r, s, got, want)
		}
		for _, k := range []int{1, 7, 64} {
			if got := oip.IntersectK(r, s, k); relation.Diff(got, want) != "" {
				t.Fatalf("trial %d k=%d: OIP vs oracle: %s\nr=%s\ns=%s\ngot=%s\nwant=%s",
					trial, k, relation.Diff(got, want), r, s, got, want)
			}
		}
	}
}

// TestSnapshotReducibility verifies Def. 1 directly: for every time point t,
// the timeslice of the TP result equals the probabilistic operation applied
// to the timeslices of the inputs (compared as fact → lineage-probability
// maps, since snapshots carry degenerate intervals).
func TestSnapshotReducibility(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 120; trial++ {
		r, s := randomRelations(rng, 10)
		for _, op := range []core.Op{core.OpUnion, core.OpIntersect, core.OpExcept} {
			out, err := core.Apply(op, r, s, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := combinedDomain(r, s)
			for tp := lo; tp < hi; tp++ {
				gotProbs := snapshotProbs(out.Timeslice(tp))
				wantProbs := probOpOnSnapshots(op, r.Timeslice(tp), s.Timeslice(tp))
				if len(gotProbs) != len(wantProbs) {
					t.Fatalf("trial %d %v t=%d: snapshot facts %v vs %v\nr=%s\ns=%s\nout=%s",
						trial, op, tp, gotProbs, wantProbs, r, s, out)
				}
				for f, p := range wantProbs {
					if g, ok := gotProbs[f]; !ok || absf(g-p) > 1e-9 {
						t.Fatalf("trial %d %v t=%d fact %s: prob %v, want %v",
							trial, op, tp, f, gotProbs[f], p)
					}
				}
			}
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func combinedDomain(r, s *relation.Relation) (lo, hi interval.Time) {
	rd, rok := r.TimeDomain()
	sd, sok := s.TimeDomain()
	switch {
	case rok && sok:
		return interval.Min(rd.Ts, sd.Ts), interval.Max(rd.Te, sd.Te)
	case rok:
		return rd.Ts, rd.Te
	case sok:
		return sd.Ts, sd.Te
	}
	return 0, 0
}

func snapshotProbs(snap *relation.Relation) map[string]float64 {
	m := make(map[string]float64, len(snap.Tuples))
	for i := range snap.Tuples {
		m[snap.Tuples[i].Key()] = snap.Tuples[i].Lineage.ProbPossibleWorlds()
	}
	return m
}

// probOpOnSnapshots applies the atemporal probabilistic set operation to
// two snapshots: per fact, combine the (unique, by duplicate-freeness)
// lineages with the operation's concatenation function of Table I and
// valuate exactly by possible-worlds enumeration.
func probOpOnSnapshots(op core.Op, rs, ss *relation.Relation) map[string]float64 {
	facts := make(map[string]struct{})
	for i := range rs.Tuples {
		facts[rs.Tuples[i].Key()] = struct{}{}
	}
	for i := range ss.Tuples {
		facts[ss.Tuples[i].Key()] = struct{}{}
	}
	find := func(rel *relation.Relation, f string) *lineage.Expr {
		for i := range rel.Tuples {
			if rel.Tuples[i].Key() == f {
				return rel.Tuples[i].Lineage
			}
		}
		return nil
	}
	out := make(map[string]float64)
	for f := range facts {
		lr, ls := find(rs, f), find(ss, f)
		switch op {
		case core.OpUnion:
			if lr != nil || ls != nil {
				out[f] = lineage.Or(lr, ls).ProbPossibleWorlds()
			}
		case core.OpIntersect:
			if lr != nil && ls != nil {
				out[f] = lineage.And(lr, ls).ProbPossibleWorlds()
			}
		case core.OpExcept:
			if lr != nil {
				out[f] = lineage.AndNot(lr, ls).ProbPossibleWorlds()
			}
		}
	}
	return out
}

// TestProposition1WindowBound checks the upper bound of Proposition 1: the
// advancer produces at most nr + ns − fd candidate windows, where nr, ns
// count the start and end points of r and s and fd is the number of
// distinct facts across both relations.
func TestProposition1WindowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		r, s := randomRelations(rng, 20)
		ws := core.Windows(r, s)
		facts := make(map[string]struct{})
		for i := range r.Tuples {
			facts[r.Tuples[i].Key()] = struct{}{}
		}
		for i := range s.Tuples {
			facts[s.Tuples[i].Key()] = struct{}{}
		}
		bound := 2*r.Len() + 2*s.Len() - len(facts)
		if len(ws) > bound {
			t.Fatalf("trial %d: %d windows exceed bound %d (nr=%d ns=%d fd=%d)",
				trial, len(ws), bound, 2*r.Len(), 2*s.Len(), len(facts))
		}
	}
}

// TestGeneratedDataCrossValidation runs the full algorithm matrix on the
// paper's synthetic workloads (small instances of the Fig. 7 generator and
// each Table III configuration) rather than on uniform random data.
func TestGeneratedDataCrossValidation(t *testing.T) {
	configs := []datagen.PairConfig{
		{NumTuples: 400, NumFacts: 1, MaxLenR: 3, MaxLenS: 3, MaxGap: 3, Seed: 7},
		{NumTuples: 400, NumFacts: 16, MaxLenR: 3, MaxLenS: 3, MaxGap: 3, Seed: 8},
	}
	for _, row := range datagen.TableIII {
		configs = append(configs, datagen.PairConfig{
			NumTuples: 300, NumFacts: 4,
			MaxLenR: row.MaxLenR, MaxLenS: row.MaxLenS, MaxGap: 3, Seed: 9,
		})
	}
	for ci, cfg := range configs {
		r, s := datagen.Pair(cfg)
		if err := r.ValidateDuplicateFree(); err != nil {
			t.Fatalf("config %d: generator produced duplicates: %v", ci, err)
		}
		for _, op := range []core.Op{core.OpUnion, core.OpIntersect, core.OpExcept} {
			want, err := core.Apply(op, r, s, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := norm.Apply(op, r, s); relation.Diff(got, want) != "" {
				t.Fatalf("config %d %v: NORM: %s", ci, op, relation.Diff(got, want))
			}
			if op != core.OpExcept {
				got, err := tpdbg.Apply(op, r, s)
				if err != nil {
					t.Fatal(err)
				}
				if relation.Diff(got, want) != "" {
					t.Fatalf("config %d %v: TPDB: %s", ci, op, relation.Diff(got, want))
				}
			}
			if op == core.OpIntersect {
				if got := timeline.Intersect(r, s); relation.Diff(got, want) != "" {
					t.Fatalf("config %d: TI: %s", ci, relation.Diff(got, want))
				}
				if got := oip.Intersect(r, s); relation.Diff(got, want) != "" {
					t.Fatalf("config %d: OIP: %s", ci, relation.Diff(got, want))
				}
			}
		}
	}
}
