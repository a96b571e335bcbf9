package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/tpset/tpset/internal/interval"
)

// Stats summarizes a TP relation with the metrics of Table IV of the paper:
// cardinality, time range, interval durations, fact counts, distinct event
// points and per-time-point tuple density.
type Stats struct {
	Cardinality    int
	TimeRange      int64 // span of the covering interval
	MinDuration    int64
	MaxDuration    int64
	AvgDuration    float64
	NumFacts       int
	DistinctPoints int     // distinct start/end points
	MaxPerPoint    int     // max tuples valid at any event point
	AvgPerPoint    float64 // average tuples valid over event points
}

// ComputeStats scans the relation once (plus an event sort) and fills a
// Stats. The per-point densities are evaluated at event points, which is
// where the maxima occur. A span wider than math.MaxInt64 points — the
// time domain is all of int64 — reads as math.MaxInt64, and the average
// duration is summed in float64, so neither wraps.
func ComputeStats(r *Relation) Stats {
	var s Stats
	s.Cardinality = len(r.Tuples)
	if s.Cardinality == 0 {
		return s
	}
	dom, _ := r.TimeDomain()
	s.TimeRange = span(dom)

	facts := make(map[string]struct{})
	type event struct {
		t     interval.Time
		delta int
	}
	events := make([]event, 0, 2*len(r.Tuples))
	var totalDur float64
	s.MinDuration = span(r.Tuples[0].T)
	for i := range r.Tuples {
		t := &r.Tuples[i]
		d := span(t.T)
		totalDur += float64(d)
		if d < s.MinDuration {
			s.MinDuration = d
		}
		if d > s.MaxDuration {
			s.MaxDuration = d
		}
		facts[r.KeyAt(i)] = struct{}{}
		events = append(events, event{t.T.Ts, 1}, event{t.T.Te, -1})
	}
	s.AvgDuration = totalDur / float64(s.Cardinality)
	s.NumFacts = len(facts)

	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta // ends before starts at equal t
	})
	active, points, sumActive := 0, 0, 0
	for i := 0; i < len(events); {
		t := events[i].t
		for i < len(events) && events[i].t == t {
			active += events[i].delta
			i++
		}
		points++
		if active > s.MaxPerPoint {
			s.MaxPerPoint = active
		}
		sumActive += active
	}
	s.DistinctPoints = points
	if points > 0 {
		s.AvgPerPoint = float64(sumActive) / float64(points)
	}
	return s
}

// span returns the number of time points in iv, saturated at
// math.MaxInt64: Te − Ts of a valid interval is exact in uint64.
func span(iv interval.Interval) int64 {
	return int64(min(uint64(iv.Te)-uint64(iv.Ts), math.MaxInt64))
}

// String renders the stats in the layout of Table IV.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cardinality              %d\n", s.Cardinality)
	fmt.Fprintf(&b, "Time Range               %d\n", s.TimeRange)
	fmt.Fprintf(&b, "Min. Duration            %d\n", s.MinDuration)
	fmt.Fprintf(&b, "Max. Duration            %d\n", s.MaxDuration)
	fmt.Fprintf(&b, "Avg. Duration            %.1f\n", s.AvgDuration)
	fmt.Fprintf(&b, "Num. of Facts            %d\n", s.NumFacts)
	fmt.Fprintf(&b, "Distinct Points          %d\n", s.DistinctPoints)
	fmt.Fprintf(&b, "Max Num. of Tuples (pt)  %d\n", s.MaxPerPoint)
	fmt.Fprintf(&b, "Avg Num. of Tuples (pt)  %.1f\n", s.AvgPerPoint)
	return b.String()
}

// OverlapFactor computes the overlapping factor of §VII-B for a pair of
// relations: the duration of the maximal subintervals during which a tuple
// of r and a tuple of s (with the same fact) overlap, divided by the total
// duration of the maximal subintervals covered by tuples of either
// relation. The value ranges in [0,1]; 0 means the relations never
// coincide, 1 means every covered time point is covered by both.
//
// Reading note: the paper counts "maximal subintervals"; a duration-
// weighted reading reproduces the Table III calibration (its length
// parameters then land near the stated factors 0.03–0.8), whereas a
// count-based reading compresses all of Table III into ≈0.3–0.5, so the
// duration-weighted interpretation is used here and the harness always
// reports the measured factor next to the paper's target.
func OverlapFactor(r, s *Relation) float64 {
	type ev struct {
		t        interval.Time
		dr, ds   int
		factSwap bool
	}
	// Build per-fact event lists: +1/-1 for r and s validity.
	events := make(map[string][]ev)
	addEvents := func(rel *Relation, isR bool) {
		for i := range rel.Tuples {
			t := &rel.Tuples[i]
			e1, e2 := ev{t: t.T.Ts}, ev{t: t.T.Te}
			if isR {
				e1.dr, e2.dr = 1, -1
			} else {
				e1.ds, e2.ds = 1, -1
			}
			k := rel.KeyAt(i)
			events[k] = append(events[k], e1, e2)
		}
	}
	addEvents(r, true)
	addEvents(s, false)

	var overlapping, total int64
	for _, evs := range events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
		ar, as := 0, 0
		var prev interval.Time
		for i := 0; i < len(evs); {
			t := evs[i].t
			if ar > 0 || as > 0 {
				total += int64(t - prev)
				if ar > 0 && as > 0 {
					overlapping += int64(t - prev)
				}
			}
			for i < len(evs) && evs[i].t == t {
				ar += evs[i].dr
				as += evs[i].ds
				i++
			}
			prev = t
		}
	}
	if total == 0 {
		return 0
	}
	return float64(overlapping) / float64(total)
}
