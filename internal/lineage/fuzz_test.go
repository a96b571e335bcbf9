package lineage

import (
	"testing"
)

// parseSeeds is the in-code seed corpus of FuzzLineageParse (the
// checked-in one lives under testdata/fuzz); the append-API tests walk
// both.
var parseSeeds = []string{
	"",
	"null",
	"x1",
	"x1 ∧ x2",
	"x1 ∨ ¬x2",
	"(a ∨ b) ∧ ¬c",
	"a & b | !c",
	"a * b + ~c",
	"a.b-c_1",
	"((a))",
	"¬¬a",
	"a ∧ b ∧ c ∧ d",
	"a ∨ (b ∧ (c ∨ ¬d))",
	"x ∧",     // truncated: must error
	") a (",   // mangled: must error
	"a ∨ | b", // doubled operator: must error
}

// FuzzLineageParse pins the parser/renderer round trip on arbitrary
// input: whatever Parse accepts must render to a string that re-parses
// to a syntactically equivalent formula, and the rendering must be a
// fixpoint (String∘Parse∘String = String). Inputs Parse rejects only
// need to be rejected cleanly — no panic, no acceptance of garbage that
// a re-parse would then mangle.
func FuzzLineageParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	probs := func(string) (float64, error) { return 0.5, nil }
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return // deep nesting is legal; just keep iterations fast
		}
		e, err := Parse(input, probs)
		if err != nil {
			return // rejected cleanly
		}
		if e == nil {
			return // "null" / blank: the no-lineage marker
		}
		s1 := e.String()
		e2, err := Parse(s1, probs)
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", s1, input, err)
		}
		if e2 == nil {
			t.Fatalf("rendering %q of %q re-parsed to nil", s1, input)
		}
		if !EquivalentSyntactic(e, e2) {
			t.Fatalf("round trip changed the formula: %q parsed %q, re-parsed %q",
				input, e.Canonical(), e2.Canonical())
		}
		if s2 := e2.String(); s2 != s1 {
			t.Fatalf("rendering is not a fixpoint: %q -> %q", s1, s2)
		}
	})
}
