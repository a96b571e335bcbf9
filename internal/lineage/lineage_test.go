package lineage

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func v(id string, p float64) *Expr { return Var(id, p) }

func TestVarValidation(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1.0001} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Var with p=%v did not panic", p)
				}
			}()
			Var("x", p)
		}()
	}
	if x := Var("x", 1); x.VarProb() != 1 {
		t.Error("p=1 must be allowed (deterministic tuples)")
	}
}

func TestStringRendering(t *testing.T) {
	a, b, c := v("a", 0.5), v("b", 0.5), v("c", 0.5)
	cases := []struct {
		e    *Expr
		want string
	}{
		{a, "a"},
		{Not(a), "¬a"},
		{And(a, b), "a∧b"},
		{Or(a, b), "a∨b"},
		{AndNot(a, Or(b, c)), "a∧¬(b∨c)"},
		{And(And(a, b), c), "a∧b∧c"},
		{Or(a, And(b, c)), "a∨(b∧c)"},
		{And(a, Or(b, c)), "a∧(b∨c)"},
		{Not(And(a, b)), "¬(a∧b)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("got %s, want %s", got, tc.want)
		}
	}
	var nilE *Expr
	if nilE.String() != "null" {
		t.Error("nil must render as null")
	}
}

func TestOneOccurrenceForm(t *testing.T) {
	a, b := v("a", 0.5), v("b", 0.5)
	if !And(a, b).IsOneOccurrence() {
		t.Error("a∧b is 1OF")
	}
	if And(a, a).IsOneOccurrence() {
		t.Error("a∧a is not 1OF")
	}
	if Or(And(a, b), Not(a)).IsOneOccurrence() {
		t.Error("(a∧b)∨¬a is not 1OF")
	}
	deep := And(Or(v("x1", .5), v("x2", .5)), AndNot(v("x3", .5), v("x4", .5)))
	if !deep.IsOneOccurrence() {
		t.Error("variable-disjoint composition must stay 1OF")
	}
}

func TestVarsAndSize(t *testing.T) {
	e := AndNot(v("a", .5), Or(v("b", .5), v("a", .5)))
	vars := e.Vars(nil)
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Fatalf("vars: %v", vars)
	}
	if (*Expr)(nil).Size() != 0 || v("a", .5).Size() != 1 || e.Size() != 6 {
		t.Error("size")
	}
}

func TestProb1OF(t *testing.T) {
	a, b, c := v("a", 0.3), v("b", 0.6), v("c", 0.7)
	cases := []struct {
		e    *Expr
		want float64
	}{
		{a, 0.3},
		{Not(a), 0.7},
		{And(a, b), 0.18},
		{Or(a, b), 1 - 0.7*0.4},
		{AndNot(c, Or(a, b)), 0.7 * 0.7 * 0.4},
		{AndNot(c, nil), 0.7},
	}
	for _, tc := range cases {
		if got := tc.e.Prob(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", tc.e, got, tc.want)
		}
	}
	var nilE *Expr
	if nilE.Prob() != 0 {
		t.Error("P(null) must be 0")
	}
}

func TestProbSharedVariables(t *testing.T) {
	a, b := v("a", 0.5), v("b", 0.4)
	// a ∨ (a∧b) ≡ a: exact probability must be 0.5, while the naive
	// independent rules would give 1-(1-.5)(1-.2) = 0.6.
	e := Or(a, And(a, b))
	if got := e.Prob(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(a∨(a∧b)) = %v, want 0.5", got)
	}
	// a ∧ ¬a ≡ false.
	if got := And(a, Not(a)).Prob(); got != 0 {
		t.Errorf("P(a∧¬a) = %v, want 0", got)
	}
	// a ∨ ¬a ≡ true.
	if got := Or(a, Not(a)).Prob(); got != 1 {
		t.Errorf("P(a∨¬a) = %v, want 1", got)
	}
}

// randomExpr builds a random formula over a small variable pool, so shared
// variables are common.
func randomExpr(rng *rand.Rand, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return Var([]string{"a", "b", "c", "d", "e"}[rng.Intn(5)], 0.1+0.8*rng.Float64())
	}
	switch rng.Intn(3) {
	case 0:
		return Not(randomExpr(rng, depth-1))
	case 1:
		return And(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	default:
		return Or(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	}
}

// TestProbAgainstPossibleWorlds: the Shannon-expansion evaluator must agree
// with brute-force possible-worlds enumeration. Note: two Vars with the
// same id but different probabilities never arise from real relations (ids
// are unique); the generator reuses probabilities per id via a pool.
func TestProbAgainstPossibleWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := map[string]float64{"a": 0.3, "b": 0.55, "c": 0.7, "d": 0.2, "e": 0.9}
	var build func(depth int) *Expr
	build = func(depth int) *Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			id := []string{"a", "b", "c", "d", "e"}[rng.Intn(5)]
			return Var(id, pool[id])
		}
		switch rng.Intn(3) {
		case 0:
			return Not(build(depth - 1))
		case 1:
			return And(build(depth-1), build(depth-1))
		default:
			return Or(build(depth-1), build(depth-1))
		}
	}
	for i := 0; i < 400; i++ {
		e := build(4)
		exact := e.ProbPossibleWorlds()
		got := e.Prob()
		if math.Abs(got-exact) > 1e-9 {
			t.Fatalf("formula %s: Prob=%v, possible-worlds=%v", e, got, exact)
		}
	}
}

func TestCanonicalEquivalence(t *testing.T) {
	a, b, c := v("a", .5), v("b", .5), v("c", .5)
	cases := []struct {
		x, y *Expr
		want bool
	}{
		{Or(a, b), Or(b, a), true},
		{And(And(a, b), c), And(a, And(b, c)), true},
		{Or(a, Or(b, c)), Or(Or(c, b), a), true},
		{And(a, b), Or(a, b), false},
		{a, b, false},
		{Not(a), a, false},
		{AndNot(a, b), And(a, Not(b)), true}, // same construction
	}
	for _, tc := range cases {
		if got := EquivalentSyntactic(tc.x, tc.y); got != tc.want {
			t.Errorf("EquivalentSyntactic(%s, %s) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
	if !EquivalentSyntactic(nil, nil) || EquivalentSyntactic(a, nil) || EquivalentSyntactic(nil, a) {
		t.Error("nil handling")
	}
	// Footnote 1: syntactic comparison is deliberately weaker than logical
	// equivalence — absorption is NOT detected.
	if EquivalentSyntactic(Or(a, And(a, b)), a) {
		t.Error("syntactic comparison must not perform absorption")
	}
}

func TestTableIConcatFunctions(t *testing.T) {
	a, b := v("a", .5), v("b", .5)
	if AndNot(a, nil) != a || Or(a, nil) != a || Or(nil, b) != b {
		t.Error("null short-circuits of Table I violated")
	}
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { And(nil, b) })
	mustPanic(func() { And(a, nil) })
	mustPanic(func() { Or(nil, nil) })
	mustPanic(func() { AndNot(nil, b) })
	mustPanic(func() { Not(nil) })
}

func TestEvalTruthTable(t *testing.T) {
	a, b := v("a", .5), v("b", .5)
	e := AndNot(a, b) // a ∧ ¬b
	cases := []struct {
		av, bv, want bool
	}{
		{false, false, false},
		{true, false, true},
		{false, true, false},
		{true, true, false},
	}
	for _, tc := range cases {
		got := e.Eval(map[string]bool{"a": tc.av, "b": tc.bv})
		if got != tc.want {
			t.Errorf("eval(a=%v,b=%v) = %v, want %v", tc.av, tc.bv, got, tc.want)
		}
	}
	var nilE *Expr
	if nilE.Eval(nil) {
		t.Error("null evaluates to false")
	}
}

// Property (quick): composing variable-disjoint 1OF formulas with the
// Table I functions preserves 1OF, and the linear evaluator matches the
// Shannon evaluator on them.
func TestQuick1OFComposition(t *testing.T) {
	counter := 0
	f := func(ops []uint8) bool {
		counter++
		rng := rand.New(rand.NewSource(int64(counter)))
		exprs := make([]*Expr, 0, len(ops)+1)
		for i := 0; i <= len(ops)%6; i++ {
			exprs = append(exprs, Var(string(rune('a'+counter%20))+string(rune('0'+i)), 0.2+0.6*rng.Float64()))
		}
		e := exprs[0]
		for i, op := range ops {
			if i+1 >= len(exprs) {
				break
			}
			switch op % 3 {
			case 0:
				e = And(e, exprs[i+1])
			case 1:
				e = Or(e, exprs[i+1])
			default:
				e = AndNot(e, exprs[i+1])
			}
		}
		if !e.IsOneOccurrence() {
			return false
		}
		return math.Abs(e.probIndependent()-e.ProbPossibleWorlds()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProbPossibleWorldsGuard(t *testing.T) {
	// 25 variables exceed the enumeration guard.
	e := Var("v0", .5)
	for i := 1; i < 25; i++ {
		e = Or(e, Var(string(rune('a'+i%26))+string(rune('0'+i/26))+"x", .5))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for > 24 variables")
		}
	}()
	e.ProbPossibleWorlds()
}

// TestExprIs32Bytes pins the node at its formula: kind and leaf id in
// one word, the marginal, two operands. One Expr is allocated per output
// window, so every byte added to it is added per result row.
func TestExprIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Expr{}); got != 32 {
		t.Fatalf("lineage.Expr is %d bytes, want 32", got)
	}
}

// TestConcatAllocatesOneNode: the Table I functions build their node and
// read nothing below it, however large the operands.
func TestConcatAllocatesOneNode(t *testing.T) {
	chain := func(prefix string) *Expr {
		e := Var(prefix+"0", .5)
		for i := 1; i < 1000; i++ {
			e = And(e, Var(prefix+strconv.Itoa(i), .5))
		}
		return e
	}
	l, r := chain("l"), chain("r")
	for name, f := range map[string]func(l, r *Expr) *Expr{"And": And, "Or": Or, "AndNot": AndNot} {
		if n := testing.AllocsPerRun(100, func() { f(l, r) }); n != 1 {
			t.Errorf("%s over two 1,000-leaf operands: %v allocations, want 1", name, n)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refOneOccurrence is 1OF the slow way: a set of every leaf id seen.
func refOneOccurrence(e *Expr) bool {
	seen := map[string]bool{}
	var walk func(*Expr) bool
	walk = func(e *Expr) bool {
		switch e.kind {
		case KindVar:
			if seen[e.ID()] {
				return false
			}
			seen[e.ID()] = true
			return true
		case KindNot:
			return walk(e.left)
		default:
			return walk(e.left) && walk(e.right)
		}
	}
	return walk(e)
}

// TestOneOccurrenceAndProbOnRandomFormulas: over random formulas whose
// variables repeat now and then, small ones and ones past the 16 leaves
// IsOneOccurrence decides on the stack, the 1OF test agrees with a set
// of seen ids, and Prob — linear or Shannon, as it decides — with the
// possible worlds wherever those are few enough to enumerate quickly
// (at most 12 variables).
func TestOneOccurrenceAndProbOnRandomFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	marginal := map[string]float64{}
	leaf := func(pool int) *Expr {
		id := "q" + strconv.Itoa(rng.Intn(pool))
		if _, ok := marginal[id]; !ok {
			marginal[id] = 0.05 + 0.9*rng.Float64()
		}
		return Var(id, marginal[id])
	}
	var gen func(leaves, pool int) *Expr
	gen = func(leaves, pool int) *Expr {
		if leaves == 1 {
			if rng.Intn(4) == 0 {
				return Not(leaf(pool))
			}
			return leaf(pool)
		}
		k := 1 + rng.Intn(leaves-1)
		l, r := gen(k, pool), gen(leaves-k, pool)
		switch rng.Intn(3) {
		case 0:
			return And(l, r)
		case 1:
			return Or(l, r)
		default:
			return AndNot(l, r)
		}
	}
	// drawn counts formulas by [over 16 leaves][in 1OF].
	var drawn [2][2]int
	valued := 0
	for i := 0; i < 600; i++ {
		leaves := 1 + rng.Intn(30)
		// A pool of at most 12 variables, where repeats are the rule, or,
		// for one draw in three, of 4,096, where they are rare.
		pool := min(12, leaves+rng.Intn(4))
		if rng.Intn(3) == 0 {
			pool = 1 << 12
		}
		e := gen(leaves, pool)
		want := refOneOccurrence(e)
		if got := e.IsOneOccurrence(); got != want {
			t.Fatalf("%s: IsOneOccurrence = %v, want %v", e, got, want)
		}
		drawn[b2i(leaves > 16)][b2i(want)]++
		if len(e.Vars(nil)) > 12 {
			continue
		}
		valued++
		if got, exact := e.Prob(), e.ProbPossibleWorlds(); math.Abs(got-exact) > 1e-9 {
			t.Fatalf("%s: Prob = %v, possible worlds = %v", e, got, exact)
		}
	}
	t.Logf("[small, large][repeating, 1OF]: %v; %d valued", drawn, valued)
	if min(drawn[0][0], drawn[0][1], drawn[1][0], drawn[1][1]) < 20 || valued < 300 {
		t.Fatalf("generator drew %v formulas ([small, large][repeating, 1OF]) and valued %d; want at least 20 of each kind and 300 valued", drawn, valued)
	}
}
