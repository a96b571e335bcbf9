package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. NaN for an empty input:
// callers rule an empty sample out first, and runWorkload refuses a
// metric that is not finite.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the exclusive-method quartiles of
// Python's statistics.quantiles(xs, n=4) — the rule the benchmark
// contract judges run-to-run steadiness by. 0 below two samples.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((at(0.75) - at(0.25)) / med)
}
