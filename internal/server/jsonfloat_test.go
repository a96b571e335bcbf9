package server

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// strconvJSONFloat is encoding/json's float64 formatting through
// strconv: the reference appendJSONFloat owes every byte.
func strconvJSONFloat(f float64) string {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(nil, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return string(b)
}

func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	got, ok := appendJSONFloat([]byte("x"), f)
	if want := strconvJSONFloat(f); !ok || string(got[1:]) != want || got[0] != 'x' {
		t.Fatalf("appendJSONFloat(%#016x) = %q, %v; want %q", math.Float64bits(f), got, ok, want)
	}
}

// neighbours returns f and the floats one unit in the last place either
// side of it.
func neighbours(f float64) []float64 {
	return []float64{math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1))}
}

// TestAppendJSONFloatMatchesStrconv holds the Schubfach kernel to
// strconv on the inputs where a shortest-digit algorithm goes wrong:
// every power of two (the one place R is asymmetric) and every power of
// ten with their neighbours, the layout edges, zero, the subnormals'
// bottom, integers up to 2^53, exact ties between two shortest
// candidates, random bit patterns and products of two uniforms (the
// shape of a derived tuple's p).
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	var fs []float64
	for bq := uint64(1); bq < 0x7ff; bq++ {
		fs = append(fs, neighbours(math.Float64frombits(bq<<52))...)
	}
	for k := -325; k <= 309; k++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		fs = append(fs, neighbours(f)...)
	}
	fs = append(fs, neighbours(1e-6)...)
	fs = append(fs, neighbours(1e21)...)
	fs = append(fs, 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 0.1, 0.2, 0.3, 1.0/3)
	for u := uint64(1); u <= 1000; u++ {
		fs = append(fs, math.Float64frombits(u), math.Float64frombits(1<<52-u)) // subnormals
	}
	for i := 0; i <= 100000; i++ {
		fs = append(fs, float64(i), -float64(i))
	}
	for _, n := range []float64{1 << 53, 1 << 52, 1e15, 1e16, 1e17} {
		fs = append(fs, neighbours(n)...)
	}
	// 1 + m·2^−17 has 18 significant digits ending in 5: halfway between
	// two 17-digit candidates that both read back, decided to the even one.
	for m := 1; m < 200; m += 2 {
		for x := -20; x <= 20; x++ {
			fs = append(fs, math.Ldexp(1+float64(m)/(1<<17), x))
		}
	}
	for _, f := range fs {
		if !math.IsInf(f, 0) { // 1e309 and MaxFloat64's upper neighbour
			checkJSONFloat(t, f)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1_000_000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			checkJSONFloat(t, f)
		}
		checkJSONFloat(t, rng.Float64()*rng.Float64())
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := appendJSONFloat([]byte("x"), f); ok || string(got) != "x" {
			t.Fatalf("appendJSONFloat(%v) = %q, %v; want nothing appended, false", f, got, ok)
		}
	}
}

// TestSchubfachTable checks the table's construction against its
// definition and the exponent estimates against exact logarithms over
// every exponent the kernel reaches.
func TestSchubfachTable(t *testing.T) {
	for q := sfQMin; q <= 971; q++ {
		// 10^k ≤ 2^q < 10^(k+1), and 10^k ≤ ¾·2^q < 10^(k+1).
		k := flog10pow2(q)
		if !pow10LE2(k, q, 1, 1) || pow10LE2(k+1, q, 1, 1) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		k = flog10threeQuartersPow2(q)
		if !pow10LE2(k, q, 3, 4) || pow10LE2(k+1, q, 3, 4) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	tab := sfTable()
	one := big.NewInt(1)
	for k := sfKMin; k <= sfKMax; k++ {
		g := tab[k-sfKMin]
		if g[0] >= 1<<63 || g[1] >= 1<<63 {
			t.Fatalf("g(%d) halves %#x %#x exceed 63 bits", k, g[0], g[1])
		}
		gb := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 63)
		gb.Add(gb, new(big.Int).SetUint64(g[1]))
		if gb.BitLen() != 126 {
			t.Fatalf("g(%d) has %d bits, want 126", k, gb.BitLen())
		}
		// (g−1)·2^r ≤ 10^−k < g·2^r, r = flog2pow10(−k) − 125.
		r := flog2pow10(-k) - 125
		lo, hi := new(big.Rat).SetInt(new(big.Int).Sub(gb, one)), new(big.Rat).SetInt(gb)
		scale := new(big.Rat).SetInt(new(big.Int).Lsh(one, uint(abs(r))))
		ten := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(k))), nil))
		if r < 0 {
			lo.Quo(lo, scale)
			hi.Quo(hi, scale)
		} else {
			lo.Mul(lo, scale)
			hi.Mul(hi, scale)
		}
		if k > 0 {
			ten.Inv(ten)
		}
		if lo.Cmp(ten) > 0 || hi.Cmp(ten) <= 0 {
			t.Fatalf("g(%d) does not bracket 10^%d", k, -k)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pow10LE2 reports whether 10^k ≤ (num/den)·2^q, exactly.
func pow10LE2(k, q int, num, den int64) bool {
	l, r := new(big.Rat).SetInt64(1), new(big.Rat).SetFrac64(num, den)
	p10 := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(k))), nil))
	p2 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(abs(q))))
	if k >= 0 {
		l.Mul(l, p10)
	} else {
		l.Quo(l, p10)
	}
	if q >= 0 {
		r.Mul(r, p2)
	} else {
		r.Quo(r, p2)
	}
	return l.Cmp(r) <= 0
}

// FuzzAppendJSONFloat is the differential test on fuzzed bit patterns.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-6, 1e21, 5e-324, math.MaxFloat64, 1 + 1.0/(1<<17), 0.3 * 0.7} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		if v := math.Float64frombits(u); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkJSONFloat(t, v)
		}
	})
}

// BenchmarkAppendJSONFloat compares the kernel with strconv on the
// values a stream formats most: a derived tuple's p, a product of
// marginals with 16–17 digits.
func BenchmarkAppendJSONFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64() * rng.Float64()
	}
	buf := make([]byte, 0, 64)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, _ = appendJSONFloat(buf[:0], vals[i&1023])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vals[i&1023], 'f', -1, 64)
		}
	})
}
