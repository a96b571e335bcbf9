package lineage

import (
	"errors"
	"math/rand"
	"testing"
	"unicode"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // re-rendered form; "" means same as in
	}{
		{"c1", ""},
		{"¬a1", ""},
		{"c1∧¬a1", ""},
		{"c1∧¬(a1∨b1)", ""},
		{"a∧b∧c", ""},
		{"a∨(b∧c)", ""},
		{"(a∨b)∧c", ""},
		{"!a", "¬a"},
		{"a & b | c", "(a∧b)∨c"},
		{"a * b + c", "(a∧b)∨c"},
		{"~ ( a | b )", "¬(a∨b)"},
		{"a∧(b∨¬c)", ""},
	}
	for _, tc := range cases {
		e, err := Parse(tc.in, func(string) (float64, error) { return 0.5, nil })
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.in
		}
		if got := e.String(); got != want {
			t.Errorf("Parse(%q) renders %q, want %q", tc.in, got, want)
		}
	}
}

func TestParseNull(t *testing.T) {
	for _, in := range []string{"null", "", "  "} {
		e, err := Parse(in, func(string) (float64, error) { return 0.5, nil })
		if err != nil || e != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", in, e, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"a∧", "∧a", "(a", "a)", "a b", "¬", "a∧null", "()", "a∨()",
	} {
		if _, err := Parse(in, func(string) (float64, error) { return 0.5, nil }); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
	// Probability resolution failure propagates.
	_, err := Parse("a∧b", func(id string) (float64, error) {
		if id == "b" {
			return 0, errors.New("unknown tuple")
		}
		return 0.5, nil
	})
	if err == nil {
		t.Error("prob resolution error not propagated")
	}
}

// TestParseRoundTrip: render → parse → render is a fixpoint, and the
// canonical forms match, for random formulas.
func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probs := func(string) (float64, error) { return 0.5, nil }
	for i := 0; i < 500; i++ {
		e := randomExpr(rng, 4)
		rendered := e.String()
		back, err := Parse(rendered, probs)
		if err != nil {
			t.Fatalf("round trip of %q: %v", rendered, err)
		}
		if back.String() != rendered {
			t.Fatalf("round trip changed %q to %q", rendered, back.String())
		}
		if back.Canonical() != e.Canonical() {
			t.Fatalf("canonical mismatch: %q vs %q", back.Canonical(), e.Canonical())
		}
	}
}

// TestIsVarNameMatchesParse pins IsVarName to its definition: true
// exactly when Parse(s) returns the single variable named s. Parse and
// IsVarName share the identifier rule, so the rule itself is checked
// rune by rune against the Unicode tables.
func TestIsVarNameMatchesParse(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		want := unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' || r == '-'
		if isIdentRune(r) != want {
			t.Fatalf("isIdentRune(%U) = %v, want %v", r, !want, want)
		}
	}
	cases := []string{
		"", "null", "nul", "nulls", "x1", "r1.a-b_c", "-", ".", "7", "ü1", "变量",
		" x1", "x1 ", "x 1", "x1∧x2", "¬x1", "(x1)", "x1+x2", "x1*", "x1,", `x"1`,
		"\xff", "x\xff", "�", "x\t", " x", "a|b", "!a", "~a",
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune{'a', 'Z', '0', '_', '.', '-', ' ', '(', ')', '&', '|', '!', '¬', '∧', 'é', '�', 'n', 'u', 'l'}
	for i := 0; i < 2000; i++ {
		r := make([]rune, rng.Intn(5))
		for j := range r {
			r[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(r))
	}
	for _, s := range cases {
		e, err := Parse(s, func(string) (float64, error) { return 0.5, nil })
		want := err == nil && e != nil && e.Kind() == KindVar && e.ID() == s
		if got := IsVarName(s); got != want {
			t.Errorf("IsVarName(%q) = %v, Parse gives %v (err %v)", s, got, e, err)
		}
	}
}
