package interval

import (
	"fmt"
)

// Time is a point of the ordered time domain ΩT.
type Time = int64

// Interval is a half-open interval [Ts, Te) over the time domain.
// A valid interval has Ts < Te; the zero value is invalid and represents
// "no interval".
type Interval struct {
	Ts Time // inclusive start
	Te Time // exclusive end
}

// New returns the interval [ts, te). It panics if ts >= te, because an empty
// or inverted interval can never be attached to a TP tuple (the data model
// requires at least one valid time point per tuple).
func New(ts, te Time) Interval {
	if ts >= te {
		panic(fmt.Sprintf("interval: invalid interval [%d,%d)", ts, te))
	}
	return Interval{Ts: ts, Te: te}
}

// Valid reports whether the interval is non-empty.
func (iv Interval) Valid() bool { return iv.Ts < iv.Te }

// Duration returns the number of time points in the interval.
func (iv Interval) Duration() int64 { return iv.Te - iv.Ts }

// Contains reports whether time point t lies inside [Ts, Te).
func (iv Interval) Contains(t Time) bool { return iv.Ts <= t && t < iv.Te }

// Overlaps reports whether the two intervals share at least one time point.
func (iv Interval) Overlaps(o Interval) bool { return iv.Ts < o.Te && o.Ts < iv.Te }

// Adjacent reports whether the two intervals meet without overlapping,
// i.e. one ends exactly where the other starts.
func (iv Interval) Adjacent(o Interval) bool { return iv.Te == o.Ts || o.Te == iv.Ts }

// ContainsInterval reports whether o lies fully within iv.
func (iv Interval) ContainsInterval(o Interval) bool { return iv.Ts <= o.Ts && o.Te <= iv.Te }

// Intersect returns the common subinterval of iv and o. The boolean result
// is false when the intervals do not overlap, in which case the returned
// interval is the zero value.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	ts := max64(iv.Ts, o.Ts)
	te := min64(iv.Te, o.Te)
	if ts >= te {
		return Interval{}, false
	}
	return Interval{Ts: ts, Te: te}, true
}

// Union returns the smallest interval covering both iv and o. It is only
// meaningful when the intervals overlap or are adjacent; the boolean result
// is false otherwise (a gap would be absorbed, which the sequenced semantics
// forbids).
func (iv Interval) Union(o Interval) (Interval, bool) {
	if !iv.Overlaps(o) && !iv.Adjacent(o) {
		return Interval{}, false
	}
	return Interval{Ts: min64(iv.Ts, o.Ts), Te: max64(iv.Te, o.Te)}, true
}

// Equal reports whether the two intervals cover exactly the same points.
func (iv Interval) Equal(o Interval) bool { return iv == o }

// Before reports whether iv lies strictly before o with a gap in between
// (Allen's "before").
func (iv Interval) Before(o Interval) bool { return iv.Te < o.Ts }

// Compare orders intervals by (Ts, Te). It returns -1, 0 or +1.
func (iv Interval) Compare(o Interval) int {
	switch {
	case iv.Ts < o.Ts:
		return -1
	case iv.Ts > o.Ts:
		return 1
	case iv.Te < o.Te:
		return -1
	case iv.Te > o.Te:
		return 1
	}
	return 0
}

// String renders the interval in the paper's [Ts,Te) notation.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Ts, iv.Te) }

// SplitAt splits iv at time point t. When t lies strictly inside the
// interval, both halves are returned; otherwise left holds iv and ok is
// false.
func (iv Interval) SplitAt(t Time) (left, right Interval, ok bool) {
	if t <= iv.Ts || t >= iv.Te {
		return iv, Interval{}, false
	}
	return Interval{iv.Ts, t}, Interval{t, iv.Te}, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller time point.
func Min(a, b Time) Time { return min64(a, b) }

// Max returns the larger time point.
func Max(a, b Time) Time { return max64(a, b) }
