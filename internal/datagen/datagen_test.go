package datagen

import (
	"testing"

	"github.com/tpset/tpset/internal/relation"
)

func TestSyntheticBasics(t *testing.T) {
	r := Synthetic(SyntheticConfig{Name: "r", NumTuples: 1000, NumFacts: 7, MaxLen: 5, MaxGap: 3, Seed: 1})
	if r.Len() != 1000 {
		t.Fatalf("len %d", r.Len())
	}
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	s := relation.ComputeStats(r)
	if s.NumFacts != 7 {
		t.Errorf("facts %d", s.NumFacts)
	}
	if s.MaxDuration > 5 || s.MinDuration < 1 {
		t.Errorf("durations out of range: %+v", s)
	}
	// Determinism.
	r2 := Synthetic(SyntheticConfig{Name: "r", NumTuples: 1000, NumFacts: 7, MaxLen: 5, MaxGap: 3, Seed: 1})
	if relation.Diff(r, r2) != "" {
		t.Error("generator not deterministic")
	}
	r3 := Synthetic(SyntheticConfig{Name: "r", NumTuples: 1000, NumFacts: 7, MaxLen: 5, MaxGap: 3, Seed: 2})
	if relation.Diff(r, r3) == "" {
		t.Error("different seeds must differ")
	}
}

func TestSyntheticDefaults(t *testing.T) {
	r := Synthetic(SyntheticConfig{Name: "r", NumTuples: 10})
	if r.Len() != 10 {
		t.Fatal("defaults must produce tuples")
	}
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
}

func TestPairOverlapMonotonicity(t *testing.T) {
	// The Table III configurations must produce strictly increasing
	// measured overlap factors — the property Fig. 9a depends on.
	prev := -1.0
	for _, row := range TableIII {
		r, s := Pair(PairConfig{
			NumTuples: 20000, NumFacts: 1,
			MaxLenR: row.MaxLenR, MaxLenS: row.MaxLenS, MaxGap: 3, Seed: 5,
		})
		got := relation.OverlapFactor(r, s)
		if got <= prev {
			t.Fatalf("overlap factor not increasing at config %+v: %v after %v", row, got, prev)
		}
		prev = got
	}
	if prev < 0.5 {
		t.Errorf("largest config should reach a high factor, got %v", prev)
	}
}

func TestFixedOverlapPair(t *testing.T) {
	r, s := FixedOverlapPair(20000, 1, 3)
	f := relation.OverlapFactor(r, s)
	// §VII-B.1 targets 0.6; the duration-weighted measurement of the
	// [1,3]-length / [0,3]-gap construction lands near 0.4 (`tpbench
	// -exp table3` prints it per Table III row); accept a band around it.
	if f < 0.3 || f > 0.7 {
		t.Errorf("fixed-overlap factor %v outside [0.3,0.7]", f)
	}
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
}

func TestMeteoShape(t *testing.T) {
	r := Meteo(MeteoConfig{NumTuples: 8000, Stations: 80, Seed: 1})
	if r.Len() != 8000 {
		t.Fatalf("len %d", r.Len())
	}
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	s := relation.ComputeStats(r)
	if s.NumFacts != 80 {
		t.Errorf("stations: %d", s.NumFacts)
	}
	// Table IV shape: long durations, many tuples valid per point.
	if s.MinDuration < 600 {
		t.Errorf("min duration %d below the 10-minute base unit", s.MinDuration)
	}
	if s.AvgPerPoint < 10 {
		t.Errorf("timeline too sparse: %+v", s)
	}
}

func TestWebkitShape(t *testing.T) {
	r := Webkit(WebkitConfig{NumTuples: 9000, Seed: 1})
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	s := relation.ComputeStats(r)
	// Very many facts (≈ n/3) and bursty event points: far fewer distinct
	// points than 2·n.
	if s.NumFacts < r.Len()/6 {
		t.Errorf("too few facts: %d of %d tuples", s.NumFacts, r.Len())
	}
	if s.DistinctPoints >= r.Len() {
		t.Errorf("event points not bursty: %d points for %d tuples", s.DistinctPoints, r.Len())
	}
	if s.MaxPerPoint < 50 {
		t.Errorf("no burst concentration: %+v", s)
	}
}

func TestShifted(t *testing.T) {
	r := Meteo(MeteoConfig{NumTuples: 3000, Stations: 20, Seed: 2})
	s := Shifted(r, "sh", 3)
	if s.Len() != r.Len() {
		t.Fatalf("len %d vs %d", s.Len(), r.Len())
	}
	if err := s.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	// Interval lengths are preserved as a multiset per... globally: compare
	// sorted length lists.
	lens := func(rel *relation.Relation) map[int64]int {
		m := make(map[int64]int)
		for i := range rel.Tuples {
			m[rel.Tuples[i].T.Duration()]++
		}
		return m
	}
	rl, sl := lens(r), lens(s)
	for d, n := range rl {
		if sl[d] != n {
			t.Fatalf("duration multiset changed at %d: %d vs %d", d, n, sl[d])
		}
	}
	if f := relation.OverlapFactor(r, s); f <= 0 {
		t.Errorf("shifted relation should still overlap the original, factor %v", f)
	}
	if Shifted(relation.New(r.Schema), "x", 1).Len() != 0 {
		t.Error("empty input")
	}
}

func TestSubset(t *testing.T) {
	r := Synthetic(SyntheticConfig{Name: "r", NumTuples: 100, NumFacts: 3, MaxLen: 3, MaxGap: 3, Seed: 1})
	s := Subset(r, 40)
	if s.Len() != 40 {
		t.Fatalf("len %d", s.Len())
	}
	if Subset(r, 1000).Len() != 100 {
		t.Error("overshoot must clamp")
	}
}
