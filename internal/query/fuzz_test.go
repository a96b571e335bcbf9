package query

import (
	"strings"
	"testing"
)

// FuzzQueryParse pins the parser/Canonical round trip on arbitrary
// input: Parse never panics, and whatever it accepts renders to a
// canonical form that re-parses to a tree with the same canonical
// rendering (the result cache keys on it) over the same relations.
// Inputs Parse rejects only need to be rejected cleanly. The checked-in
// seed corpus (testdata/fuzz) is drawn from the parser and canonical
// tests' inputs; the seeds below add queries exactly at MaxNodes (an
// operator chain, a parenthesis nest) and past it.
func FuzzQueryParse(f *testing.F) {
	head := "a"
	if MaxNodes%2 == 0 {
		head = "sigma[F='v'](a)"
	}
	chain := head + strings.Repeat(" | b", (MaxNodes-1)/2)
	nest := strings.Repeat("(", MaxNodes) + "a" + strings.Repeat(")", MaxNodes)
	for _, seed := range []string{
		"a", "c - (a | b)", "a | b & c", "a - b - c", "a union b intersect c", "a minus b",
		"sigma[Product='milk'](c) - a", "sigma[P=v](a - b)", "  a   |(b)  ", "((a)) | ((b))", "web.kit",
		"", "a |", "(a", "a)", "sigma[x](a)", "sigma[x='unterminated](a)", "a ! b", "'lit'",
		chain, chain + " & c", "sigma[F='v'](" + chain + ")", nest, "(" + nest + ")",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return // keep iterations fast; the bound seeds fit below this
		}
		n, err := Parse(input)
		if err != nil {
			return // rejected cleanly
		}
		c1 := Canonical(n)
		n2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", c1, input, err)
		}
		if c2 := Canonical(n2); c2 != c1 {
			t.Fatalf("canonical form is not a fixpoint: %q -> %q -> %q", input, c1, c2)
		}
		if r1, r2 := Relations(n), Relations(n2); strings.Join(r1, "\x00") != strings.Join(r2, "\x00") {
			t.Fatalf("round trip of %q changed the relations: %q vs %q", input, r1, r2)
		}
	})
}
