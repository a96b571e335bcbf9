package server

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// appendJSONFloat appends f as encoding/json formats a float64:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21,
// with a two-digit exponent's leading zero dropped (e-07 → e-7). It
// reports false, appending nothing, for NaN and ±Inf.
//
// The digits are strconv's — the shortest decimal that reads back as f,
// the nearest to f among those, ties to even — found by shortestDecimal
// instead of strconv's generic formatter, which costs about twice as
// much per value: a derived row's p is new on every row.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	u := math.Float64bits(f)
	if u>>52&0x7ff == 0x7ff {
		return dst, false // NaN, ±Inf
	}
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	if u<<1 == 0 {
		return append(dst, '0'), true // ±0
	}
	d, e := shortestDecimal(u)
	var buf [24]byte
	digits := writeDigits(&buf, d)
	for len(digits) > 1 && digits[len(digits)-1] == '0' {
		digits, e = digits[:len(digits)-1], e+1
	}
	// f = 0.digits × 10^dp: dp digits stand before the decimal point.
	dp := len(digits) + e
	switch {
	case dp <= -6 || dp >= 22: // below 1e-6, or from 1e21
		dst = append(dst, digits[0])
		if len(digits) > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		x := dp - 1
		if x < 0 {
			dst, x = append(dst, 'e', '-'), -x
		} else {
			dst = append(dst, 'e', '+')
		}
		switch {
		case x < 10:
			dst = append(dst, byte('0'+x))
		case x < 100:
			dst = append(dst, digitPairs[2*x], digitPairs[2*x+1])
		default:
			dst = append(dst, byte('0'+x/100), digitPairs[2*(x%100)], digitPairs[2*(x%100)+1])
		}
	case dp <= 0:
		dst = append(dst, "0.00000"[:2-dp]...)
		dst = append(dst, digits...)
	case dp < len(digits):
		dst = append(dst, digits[:dp]...)
		dst = append(dst, '.')
		dst = append(dst, digits[dp:]...)
	default:
		dst = append(dst, digits...)
		dst = append(dst, "000000000000000000000"[:dp-len(digits)]...)
	}
	return dst, true
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// writeDigits writes the decimal digits of d < 10^18 into the tail of
// buf — two 8-digit chunks and a leading pair, two digits per lookup —
// and returns them without leading zeros.
func writeDigits(buf *[24]byte, d uint64) []byte {
	n := decimalLen(d)
	put8(buf[16:24], uint32(d%1e8))
	d /= 1e8
	put8(buf[8:16], uint32(d%1e8))
	d /= 1e8
	buf[6], buf[7] = digitPairs[2*d], digitPairs[2*d+1]
	return buf[len(buf)-n:]
}

// put8 writes x < 10^8 as exactly eight digits.
func put8(b []byte, x uint32) {
	hi, lo := x/10000, x%10000
	a, c := hi/100, hi%100
	e, g := lo/100, lo%100
	_ = b[7]
	b[0], b[1] = digitPairs[2*a], digitPairs[2*a+1]
	b[2], b[3] = digitPairs[2*c], digitPairs[2*c+1]
	b[4], b[5] = digitPairs[2*e], digitPairs[2*e+1]
	b[6], b[7] = digitPairs[2*g], digitPairs[2*g+1]
}

// decimalLen returns the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := (bits.Len64(d) * 1233) >> 12 // ⌊log10(2)·bit length⌋: n or n−1 digits
	if d >= pow10u64[n] {
		n++
	}
	return n
}

var pow10u64 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// The Schubfach algorithm for float64 (R. Giulietti, "The Schubfach way
// to render doubles", 2020): a finite non-zero v = c·2^q has a rounding
// interval R of the reals that read back as v, and one multiplication
// of c by a 126-bit approximation of 10^−k, rounded to odd, places v
// and R's bounds on the grid of multiples of 10^k closely enough to
// pick the shortest decimal in R exactly — one digit fewer than the
// grid's if a multiple of 10^(k+1) lies in R, else the grid point
// nearest v, ties to even. The names follow the paper's figure 7.
const (
	sfQMin = -1074 // q of the subnormals
	sfKMin = -324  // flog10pow2(sfQMin)
	sfKMax = 292   // flog10pow2(971), 971 the largest q
)

// flog10pow2 is ⌊q·log10(2)⌋ for |q| ≤ 5456721;
// flog10threeQuartersPow2 is ⌊log10(¾·2^q)⌋ and flog2pow10 ⌊k·log2(10)⌋
// over the same range.
func flog10pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func flog10threeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(k int) int { return int(int64(k) * 913_124_641_741 >> 38) }

// sfTable holds, for k from sfKMin to sfKMax, g = ⌊10^−k·2^−r⌋ + 1 with
// r = flog2pow10(−k) − 125, so that 2^125 ≤ g−1 ≤ 10^−k·2^−r < g, split
// into 63-bit halves g = hi·2^63 + lo. It is computed exactly with
// math/big on the first formatted value, not at package init.
var sfTable = sync.OnceValue(func() *[sfKMax - sfKMin + 1][2]uint64 {
	t := new([sfKMax - sfKMin + 1][2]uint64)
	var num, den, g, ten, hi big.Int
	ten.SetInt64(10)
	for k := sfKMin; k <= sfKMax; k++ {
		r := flog2pow10(-k) - 125
		num.SetInt64(1)
		den.SetInt64(1)
		if k < 0 {
			num.Exp(&ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(&ten, big.NewInt(int64(k)), nil)
		}
		if r < 0 {
			num.Lsh(&num, uint(-r))
		} else {
			den.Lsh(&den, uint(r))
		}
		g.Quo(&num, &den)
		g.Add(&g, big.NewInt(1))
		hi.Rsh(&g, 63)
		t[k-sfKMin] = [2]uint64{hi.Uint64(), g.Uint64() & (1<<63 - 1)}
	}
	return t
})

// shortestDecimal returns d and e such that d·10^e is the shortest
// decimal that reads back as the finite, non-zero float64 with bits u
// (sign ignored), the nearest to it among those, ties to even. d has at
// most 17 digits and may end in zeros.
func shortestDecimal(u uint64) (d uint64, e int) {
	t := u & (1<<52 - 1)
	bq := int(u>>52) & 0x7ff
	if bq == 0 {
		return schubfach(sfQMin, t) // subnormal
	}
	q, c := bq-1075, t|1<<52
	if -52 <= q && q < 0 {
		// An integer below 2^53 is its own shortest decimal (section 8.3
		// of the paper).
		if f := c >> -q; f<<-q == c {
			return f, 0
		}
	}
	return schubfach(q, c)
}

func schubfach(q int, c uint64) (uint64, int) {
	out := c & 1 // an odd c excludes R's bounds
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == sfQMin {
		cbl, k = cb-2, flog10pow2(q)
	} else {
		// The lower neighbour of a power of two is half as far.
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &sfTable()[k-sfKMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	// One digit fewer: at most one multiple of 10^(k+1) fits in R.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// The grid points below and above v; at least one lies in R.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns cp·g·2^−127, g = g1·2^63 + g0, rounded to odd: the
// integer part with its lowest bit set if anything was cut off.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}
