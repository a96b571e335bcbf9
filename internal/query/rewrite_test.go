package query

import (
	"testing"

	"github.com/tpset/tpset/internal/relation"
)

func TestPushDownSelections(t *testing.T) {
	db := map[string]*relation.Relation{}
	for _, s := range []relation.Schema{
		relation.NewSchema("a", "Product"), relation.NewSchema("b", "Product"), relation.NewSchema("c", "Product"),
		relation.NewSchema("xy", "X", "Y"), relation.NewSchema("yx", "Y", "X"), relation.NewSchema("pq", "P", "Q"),
	} {
		db[s.Name] = relation.New(s)
	}
	cases := []struct {
		in, want, blind string // blind: PushDownSelections, without schemas
	}{
		{
			"sigma[Product='milk'](c - (a | b))",
			"(σ[Product='milk'](c) −Tp (σ[Product='milk'](a) ∪Tp σ[Product='milk'](b)))",
			"(σ[Product='milk'](c) −Tp (a ∪Tp b))",
		},
		{
			"sigma[Product='milk'](a & b)",
			"(σ[Product='milk'](a) ∩Tp σ[Product='milk'](b))",
			"(σ[Product='milk'](a) ∩Tp b)",
		},
		{
			"sigma[Product='milk'](a)",
			"σ[Product='milk'](a)",
			"σ[Product='milk'](a)",
		},
		{
			"a - b",
			"(a −Tp b)",
			"(a −Tp b)",
		},
		{
			// Nested selections commute and both reach the base.
			"sigma[Product='milk'](sigma[Product='milk'](a | b))",
			"(σ[Product='milk'](σ[Product='milk'](a)) ∪Tp σ[Product='milk'](σ[Product='milk'](b)))",
			"σ[Product='milk'](σ[Product='milk']((a ∪Tp b)))",
		},
		{
			// Set operations match facts by position: X is yx's second
			// attribute, and the output's first is named Y there.
			"sigma[X='v'](xy | yx)",
			"(σ[X='v'](xy) ∪Tp σ[Y='v'](yx))",
			"σ[X='v']((xy ∪Tp yx))",
		},
		{
			"sigma[Y='w'](xy - (pq & yx))",
			"(σ[Y='w'](xy) −Tp (σ[Q='w'](pq) ∩Tp σ[X='w'](yx)))",
			"(σ[Y='w'](xy) −Tp (pq ∩Tp yx))",
		},
		{
			// A relation the db does not hold has no known schema: the
			// selection stops above the union and stays left of the −Tp.
			"sigma[X='v'](xy | zz)",
			"σ[X='v']((xy ∪Tp zz))",
			"σ[X='v']((xy ∪Tp zz))",
		},
		{
			"sigma[X='v'](xy - zz)",
			"(σ[X='v'](xy) −Tp zz)",
			"(σ[X='v'](xy) −Tp zz)",
		},
		{
			// An attribute the output lacks is left for the plan to report.
			"sigma[Nope='v'](xy | yx)",
			"σ[Nope='v']((xy ∪Tp yx))",
			"σ[Nope='v']((xy ∪Tp yx))",
		},
	}
	for _, tc := range cases {
		if got := PushDown(MustParse(tc.in), db); got.String() != tc.want {
			t.Errorf("PushDown(%q) = %s, want %s", tc.in, got, tc.want)
		}
		if got := PushDownSelections(MustParse(tc.in)); got.String() != tc.blind {
			t.Errorf("PushDownSelections(%q) = %s, want %s", tc.in, got, tc.blind)
		}
	}
}
