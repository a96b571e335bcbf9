package query

import (
	"testing"
)

func TestPushDownSelections(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{
			"sigma[Product='milk'](c - (a | b))",
			"(σ[Product='milk'](c) −Tp (σ[Product='milk'](a) ∪Tp σ[Product='milk'](b)))",
		},
		{
			"sigma[Product='milk'](a & b)",
			"(σ[Product='milk'](a) ∩Tp σ[Product='milk'](b))",
		},
		{
			"sigma[Product='milk'](a)",
			"σ[Product='milk'](a)",
		},
		{
			"a - b",
			"(a −Tp b)",
		},
		{
			// Nested selections commute and both reach the base.
			"sigma[Product='milk'](sigma[Product='milk'](a | b))",
			"(σ[Product='milk'](σ[Product='milk'](a)) ∪Tp σ[Product='milk'](σ[Product='milk'](b)))",
		},
	}
	for _, tc := range cases {
		got := PushDownSelections(MustParse(tc.in))
		if got.String() != tc.want {
			t.Errorf("PushDown(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestCountSelections(t *testing.T) {
	n := MustParse("sigma[P='x'](a - b) | sigma[P='y'](c)")
	total, onBase := CountSelections(n)
	if total != 2 || onBase != 1 {
		t.Fatalf("total=%d onBase=%d", total, onBase)
	}
	p := PushDownSelections(n)
	total, onBase = CountSelections(p)
	if total != 3 || onBase != 3 {
		t.Fatalf("after pushdown: total=%d onBase=%d (%s)", total, onBase, p)
	}
}
