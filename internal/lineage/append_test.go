package lineage

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/keys"
)

// parseCorpus returns every formula of the parser fuzz corpus that
// parses: the in-code seeds and the checked-in testdata entries. Each
// occurrence of a variable gets its own marginal, so repeated variables
// carry differing ones.
func parseCorpus(t *testing.T) []*Expr {
	t.Helper()
	inputs := append([]string{}, parseSeeds...)
	files, err := filepath.Glob("testdata/fuzz/FuzzLineageParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in fuzz corpus: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\nstring(<quoted>)\n"
		_, arg, ok := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		if !ok {
			t.Fatalf("%s: not a one-string corpus entry", f)
		}
		in, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		inputs = append(inputs, in)
	}
	var out []*Expr
	for _, in := range inputs {
		n := 0
		e, err := Parse(in, func(string) (float64, error) { n++; return 1 / float64(n+1), nil })
		if err == nil && e != nil {
			out = append(out, e)
		}
	}
	if len(out) < 10 {
		t.Fatalf("only %d corpus formulas parsed", len(out))
	}
	return out
}

// randomExprs adds deep random trees over a small variable set, so
// repeats — with differing marginals — are the rule.
func randomExprs(n int) []*Expr {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c1", "d.2", "é", "long_variable_name-9"}
	var gen func(depth int) *Expr
	gen = func(depth int) *Expr {
		k := rng.Intn(4)
		if depth == 0 {
			k = 0
		}
		switch k {
		case 0:
			return Var(names[rng.Intn(len(names))], 1/float64(1+rng.Intn(9)))
		case 1:
			return Not(gen(depth - 1))
		case 2:
			return And(gen(depth-1), gen(depth-1))
		default:
			return Or(gen(depth-1), gen(depth-1))
		}
	}
	out := make([]*Expr, n)
	for i := range out {
		out[i] = gen(rng.Intn(7))
	}
	return out
}

// refRender is the rendering rule written the slow way: ¬ parenthesizes
// anything but a variable, ∧/∨ parenthesize an operand of the other
// binary kind.
func refRender(e *Expr) string {
	operand := func(c *Expr, parent Kind) string {
		if (c.kind == KindAnd || c.kind == KindOr) && c.kind != parent {
			return "(" + refRender(c) + ")"
		}
		return refRender(c)
	}
	switch e.kind {
	case KindVar:
		return e.ID()
	case KindNot:
		if e.left.kind == KindVar {
			return "¬" + refRender(e.left)
		}
		return "¬(" + refRender(e.left) + ")"
	case KindAnd:
		return operand(e.left, KindAnd) + "∧" + operand(e.right, KindAnd)
	default:
		return operand(e.left, KindOr) + "∨" + operand(e.right, KindOr)
	}
}

func TestAppendStringIsString(t *testing.T) {
	if got := string((*Expr)(nil).AppendString([]byte("λ="), VarNames())); got != "λ=null" || (*Expr)(nil).String() != "null" {
		t.Fatalf("nil formula renders %q", got)
	}
	for _, e := range append(parseCorpus(t), randomExprs(200)...) {
		want := refRender(e)
		if got := e.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(e.AppendString(nil, VarNames())); got != want {
			t.Fatalf("AppendString(nil) = %q, want %q", got, want)
		}
		if got := string(e.AppendString([]byte("λ="), VarNames())); got != "λ="+want {
			t.Fatalf("AppendString onto a prefix = %q, want %q", got, "λ="+want)
		}
	}
}

func TestAppendVarProbsIsSortedVarProbs(t *testing.T) {
	if got := (*Expr)(nil).AppendVarProbs(nil, VarNames()); len(got) != 0 {
		t.Fatalf("nil formula has marginals %v", got)
	}
	// id resolves a name the way a leaf carries it.
	id := func(name string) keys.VarID { return Var(name, 1).VarID() }
	last := Or(And(Var("v", 0.25), Var("u", 0.5)), Not(Var("v", 0.75)))
	if got := last.AppendVarProbs(nil, VarNames()); len(got) != 2 || got[0] != (VarProb{"u", 0.5, id("u")}) || got[1] != (VarProb{"v", 0.75, id("v")}) {
		t.Fatalf("AppendVarProbs = %v, want u then v with v's last marginal", got)
	}
	for _, e := range append(parseCorpus(t), randomExprs(200)...) {
		m := make(map[string]float64)
		e.VarProbs(m)
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)

		prefix := []VarProb{{"kept", 1, id("kept")}}
		got := e.AppendVarProbs(prefix, VarNames())
		if got[0] != prefix[0] || len(got) != 1+len(names) {
			t.Fatalf("%s: AppendVarProbs = %v, want the prefix and %d variables", e, got, len(names))
		}
		for i, name := range names {
			if got[1+i] != (VarProb{name, m[name], id(name)}) {
				t.Fatalf("%s: entry %d = %v, want %s:%v", e, i, got[1+i], name, m[name])
			}
		}
	}
}
