package datagen

import (
	"fmt"
	"math/rand"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/relation"
)

// SyntheticConfig parameterizes the §VII-B generator for one relation.
type SyntheticConfig struct {
	Name      string // relation name and base-tuple id prefix
	NumTuples int
	NumFacts  int   // tuples are distributed round-robin over this many facts
	MaxLen    int64 // interval lengths are uniform in [1, MaxLen]
	MaxGap    int64 // gaps between consecutive same-fact tuples are uniform in [0, MaxGap]
	Seed      int64
}

// Synthetic generates a duplicate-free relation: per fact, a chain of
// intervals with random lengths in [1, MaxLen] and random gaps in
// [0, MaxGap], mirroring the paper's construction ("randomly select the
// length of the intervals and the distance between two consecutive
// intervals").
func Synthetic(cfg SyntheticConfig) *relation.Relation {
	if cfg.NumFacts < 1 {
		cfg.NumFacts = 1
	}
	if cfg.MaxLen < 1 {
		cfg.MaxLen = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := relation.New(relation.NewSchema(cfg.Name, "Fact"))
	cursors := make([]interval.Time, cfg.NumFacts)
	facts := make([]relation.Fact, cfg.NumFacts)
	// Fact chains tile the timeline: fact f starts where fact f−1's chain
	// is expected to end. The offset formula is deterministic in the
	// configuration (not the seed), so the r and s relations of a pair
	// stay aligned per fact and the overlapping factor is controlled by
	// the length/gap parameters alone. Without tiling, every fact's chain
	// would crowd the same time range and the cross-fact temporal overlap
	// would grow with the fact count — penalizing pair-then-filter
	// approaches (TI) in a way the paper's fact-count sweep does not.
	tile := int64(cfg.NumTuples/cfg.NumFacts+1) * (cfg.MaxLen + 1 + cfg.MaxGap) / 2
	for f := range facts {
		facts[f] = relation.NewFact(fmt.Sprintf("f%06d", f))
		cursors[f] = interval.Time(int64(f) * tile)
	}
	for i := 0; i < cfg.NumTuples; i++ {
		f := i % cfg.NumFacts
		gap := interval.Time(0)
		if cfg.MaxGap > 0 {
			gap = rng.Int63n(cfg.MaxGap + 1)
		}
		ts := cursors[f] + gap
		length := 1 + rng.Int63n(cfg.MaxLen)
		te := ts + length
		cursors[f] = te
		r.AddBase(facts[f], fmt.Sprintf("%s%d", cfg.Name, i), ts, te, 0.1+0.9*rng.Float64())
	}
	r.Intern()
	return r
}

// PairConfig parameterizes a pair of relations generated to reach a target
// overlapping factor via the length asymmetry of Table III.
type PairConfig struct {
	NumTuples int // per relation
	NumFacts  int
	MaxLenR   int64
	MaxLenS   int64
	MaxGap    int64
	Seed      int64
}

// Table III of the paper: the generator settings that realize each
// overlapping factor at MaxGap = 3.
var TableIII = []struct {
	OverlapFactor float64
	MaxLenR       int64
	MaxLenS       int64
}{
	{0.03, 100, 3},
	{0.1, 100, 10},
	{0.4, 50, 10},
	{0.6, 3, 3},
	{0.8, 10, 10},
}

// Pair generates the (r, s) input pair of a synthetic experiment.
func Pair(cfg PairConfig) (r, s *relation.Relation) {
	r = Synthetic(SyntheticConfig{
		Name: "r", NumTuples: cfg.NumTuples, NumFacts: cfg.NumFacts,
		MaxLen: cfg.MaxLenR, MaxGap: cfg.MaxGap, Seed: cfg.Seed,
	})
	s = Synthetic(SyntheticConfig{
		Name: "s", NumTuples: cfg.NumTuples, NumFacts: cfg.NumFacts,
		MaxLen: cfg.MaxLenS, MaxGap: cfg.MaxGap, Seed: cfg.Seed + 1,
	})
	// One shared dictionary across the pair keeps the whole set operation
	// — sort, advancer, partitioning, merge — on integer compares.
	relation.InternAll(r, s)
	return r, s
}

// FixedOverlapPair generates a pair calibrated to the §VII-B.1 runtime
// experiments: overlapping factor ≈ 0.6, lengths and gaps in [0,3]
// ("we fix the overlapping factor to 0.6, and we randomly select the length
// of the intervals and the distance between two consecutive intervals in
// [0,3]").
func FixedOverlapPair(numTuples, numFacts int, seed int64) (r, s *relation.Relation) {
	return Pair(PairConfig{
		NumTuples: numTuples, NumFacts: numFacts,
		MaxLenR: 3, MaxLenS: 3, MaxGap: 3, Seed: seed,
	})
}

// MeteoConfig parameterizes the Meteo-Swiss-like simulator.
type MeteoConfig struct {
	NumTuples int
	Stations  int // 80 in the original dataset
	Seed      int64
}

// Meteo synthesizes a relation with the distributional shape of the Meteo
// Swiss dataset of Table IV: few facts (stations), long heavy-tailed
// interval durations (merged 10-minute measurements), and a dense timeline
// with a few dozen tuples valid per time point.
//
// Substitution note (DESIGN.md): the original data is a proprietary
// extraction; only its shape — few facts, long intervals, high per-point
// density — drives the experiments, and that shape is reproduced here.
func Meteo(cfg MeteoConfig) *relation.Relation {
	if cfg.Stations < 1 {
		cfg.Stations = 80
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := relation.New(relation.NewSchema("meteo", "Station"))
	cursors := make([]interval.Time, cfg.Stations)
	for i := 0; i < cfg.NumTuples; i++ {
		st := i % cfg.Stations
		// Heavy-tailed duration: mostly short runs of stable temperature,
		// occasionally very long ones. Base unit 600 (10 minutes in
		// seconds), tail exponent ~1.5.
		u := rng.Float64()
		dur := interval.Time(600 * (1 + int64(20/(0.05+u*u))))
		gap := rng.Int63n(600)
		ts := cursors[st] + gap
		te := ts + dur
		cursors[st] = te
		fact := relation.NewFact(fmt.Sprintf("station%02d", st))
		r.AddBase(fact, fmt.Sprintf("m%d", i), ts, te, 0.1+0.9*rng.Float64())
	}
	r.Intern()
	return r
}

// WebkitConfig parameterizes the Webkit-like simulator.
type WebkitConfig struct {
	NumTuples int
	// NumFacts defaults to NumTuples/3, matching the original ratio
	// (484K files over 1.5M revisions).
	NumFacts int
	Seed     int64
}

// Webkit synthesizes a relation with the shape of the Webkit SVN dataset of
// Table IV: very many facts (files), and bursty commits — many tuples start
// or end at exactly the same time point (commits touch many files at once),
// the property that degrades the Timeline Index baseline (§VII-C).
func Webkit(cfg WebkitConfig) *relation.Relation {
	if cfg.NumFacts <= 0 {
		cfg.NumFacts = cfg.NumTuples/3 + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := relation.New(relation.NewSchema("webkit", "File"))
	cursors := make([]interval.Time, cfg.NumFacts)
	// Commit timeline: bursts at shared time points.
	commitTimes := make([]interval.Time, 0, cfg.NumTuples/8+2)
	t := interval.Time(0)
	for len(commitTimes)*8 < cfg.NumTuples+16 {
		t += 1 + rng.Int63n(5000)
		commitTimes = append(commitTimes, t)
	}
	for i := 0; i < cfg.NumTuples; i++ {
		f := rng.Intn(cfg.NumFacts)
		// Each file version lives from one commit burst to a later one.
		ci := sortSearchTime(commitTimes, cursors[f])
		if ci >= len(commitTimes)-1 {
			// File history exhausted the timeline; restart on a new file id
			// (keeps the relation duplicate-free).
			f = (f + i) % cfg.NumFacts
			ci = sortSearchTime(commitTimes, cursors[f])
			if ci >= len(commitTimes)-1 {
				continue
			}
		}
		span := 1 + rng.Intn(7)
		ei := ci + span
		if ei >= len(commitTimes) {
			ei = len(commitTimes) - 1
		}
		ts, te := commitTimes[ci], commitTimes[ei]
		if ts >= te {
			continue
		}
		cursors[f] = te
		fact := relation.NewFact(fmt.Sprintf("file%06d", f))
		r.AddBase(fact, fmt.Sprintf("w%d", i), ts, te, 0.1+0.9*rng.Float64())
	}
	r.Intern()
	return r
}

func sortSearchTime(ts []interval.Time, min interval.Time) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < min {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shifted derives a second relation from r with the paper's §VII-C method:
// every interval keeps its length but is moved to a new start point drawn
// from the distribution of the original start points (approximated by
// sampling original starts and adding bounded jitter). Identifiers are
// re-prefixed to stay globally unique; same-fact overlaps within the output
// are resolved by pushing tuples right, preserving duplicate-freeness.
func Shifted(r *relation.Relation, prefix string, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	starts := make([]interval.Time, 0, len(r.Tuples))
	var avgLen int64
	for i := range r.Tuples {
		starts = append(starts, r.Tuples[i].T.Ts)
		avgLen += r.Tuples[i].T.Duration()
	}
	if len(starts) == 0 {
		return relation.New(r.Schema)
	}
	avgLen /= int64(len(starts))
	if avgLen < 1 {
		avgLen = 1
	}

	out := relation.New(r.Schema)
	for i := range r.Tuples {
		t := r.Tuples[i]
		base := starts[rng.Intn(len(starts))]
		jitter := rng.Int63n(2*avgLen+1) - avgLen
		ts := base + jitter
		te := ts + t.T.Duration()
		out.AddBase(t.Fact, fmt.Sprintf("%s%d", prefix, i), ts, te, 0.1+0.9*rng.Float64())
	}
	// Shifted facts are a subset of r's, so binding to r's dictionary
	// keeps the derived relation dict-aligned with its source (the
	// Fig. 10/11 pairs run set operations between the two).
	if d := r.Dict(); d == nil || !out.Bind(d) {
		out.Intern()
	}
	// Resolve same-fact overlaps by sorting and pushing right.
	out.Sort()
	lastEnd := make(map[string]interval.Time, 1024)
	for i := range out.Tuples {
		t, k := &out.Tuples[i], out.KeyAt(i)
		if end, ok := lastEnd[k]; ok && t.T.Ts < end {
			d := end - t.T.Ts
			t.T.Ts += d
			t.T.Te += d
		}
		lastEnd[k] = t.T.Te
	}
	return out
}

// Subset returns a relation with the first n tuples of r (in r's current
// order). The experiments of §VII-C run over "random subsets" of the real
// datasets; generators here produce shuffled data already, so a prefix is a
// random subset.
func Subset(r *relation.Relation, n int) *relation.Relation {
	return r.Slice(0, min(n, len(r.Tuples))).Clone()
}
