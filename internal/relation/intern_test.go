package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/keys"
)

// TestFactKeyNoSeparatorAliasing is the regression test for the
// separator-collision hazard: values containing the \x1f separator (or
// the \x1e escape byte) used to alias distinct facts onto one key, so a
// relation could reject valid data as duplicates — or worse, admit two
// facts the execution stack then treated as one.
func TestFactKeyNoSeparatorAliasing(t *testing.T) {
	pairs := [][2]Fact{
		{NewFact("a\x1f", "b"), NewFact("a", "\x1fb")},
		{NewFact("a\x1fb", "c"), NewFact("a", "b\x1fc")},
		{NewFact("a", "b", "c"), NewFact("a", "b\x1fc")},
		{NewFact("x\x1e", "y"), NewFact("x", "\x1ey")},
		{NewFact("x\x1e\x1f", "y"), NewFact("x\x1e", "\x1fy")},
		{NewFact("", "ab"), NewFact("a", "b")},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("facts %q and %q alias key %q", p[0], p[1], p[0].Key())
		}
	}
	// Injectivity sweep: random 2-attribute facts over a hostile alphabet.
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte{'a', 'b', 0x1e, 0x1f}
	seen := make(map[string][2]string)
	for i := 0; i < 20000; i++ {
		mk := func() string {
			n := rng.Intn(4)
			b := make([]byte, n)
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		}
		v1, v2 := mk(), mk()
		k := NewFact(v1, v2).Key()
		if prev, ok := seen[k]; ok && (prev[0] != v1 || prev[1] != v2) {
			t.Fatalf("collision: (%q,%q) and (%q,%q) share key %q", prev[0], prev[1], v1, v2, k)
		}
		seen[k] = [2]string{v1, v2}
	}
}

// TestFactKeyPlainValuesUnchanged pins the common case: separator-free
// values keep the historical key form (plain join; identity for single
// attributes), so on-disk key expectations and single-attribute lookups
// like LineageAt("milk", ...) are unaffected by the escaping fix.
func TestFactKeyPlainValuesUnchanged(t *testing.T) {
	if got := NewFact("milk").Key(); got != "milk" {
		t.Errorf("single-attribute key = %q, want %q", got, "milk")
	}
	if got := NewFact("a", "b").Key(); got != "a\x1fb" {
		t.Errorf("two-attribute key = %q, want %q", got, "a\x1fb")
	}
}

func buildRel(name string, facts []string, n int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := New(NewSchema(name, "F"))
	cursors := make(map[string]int64, len(facts))
	for i := 0; i < n; i++ {
		f := facts[rng.Intn(len(facts))]
		ts := cursors[f] + int64(rng.Intn(3))
		te := ts + 1 + int64(rng.Intn(4))
		cursors[f] = te
		r.AddBase(NewFact(f), fmt.Sprintf("%s%d", name, i), ts, te, 0.1+0.8*rng.Float64())
	}
	return r
}

// TestInternedSortMatchesStringSort: the packed (FactID, Ts, Te) order
// must be exactly the (fact key, Ts, Te) order.
func TestInternedSortMatchesStringSort(t *testing.T) {
	facts := []string{"delta", "alpha", "zz", "beta", "a", "ab"}
	for trial := int64(0); trial < 20; trial++ {
		a := buildRel("r", facts, 200, trial)
		b := a.Clone()
		b.Unbind()
		if a.Dict() != nil {
			t.Fatal("fresh relation unexpectedly bound")
		}
		InternAll(a)
		if a.Dict() == nil {
			t.Fatal("InternAll left relation unbound")
		}
		a.Sort()
		b.Sort()
		for i := range a.Tuples {
			x, y := &a.Tuples[i], &b.Tuples[i]
			if !x.Fact.Equal(y.Fact) || x.T != y.T {
				t.Fatalf("trial %d: sorted order diverges at %d: %v vs %v", trial, i, x, y)
			}
		}
		if !a.IsSorted() || !b.IsSorted() {
			t.Fatal("IsSorted disagrees after Sort")
		}
	}
}

// TestBindMaintainsInvariants covers Bind/Unbind/Add interplay.
func TestBindMaintainsInvariants(t *testing.T) {
	r := buildRel("r", []string{"a", "b", "c"}, 50, 1)
	d := r.Intern()
	if r.Dict() != d {
		t.Fatal("Intern did not bind")
	}
	fid := r.FidCol()
	if len(fid) != r.Len() {
		t.Fatalf("Intern built a column of %d ids over %d rows", len(fid), r.Len())
	}
	for i, id := range fid {
		if d.Key(keys.FactID(id)) != r.Tuples[i].Key() || r.KeyAt(i) != r.Tuples[i].Key() {
			t.Fatalf("tuple %d id %d resolves to %q, want %q", i, id, d.Key(keys.FactID(id)), r.Tuples[i].Key())
		}
	}

	// Adding a tuple whose fact the dict knows keeps the binding.
	r.AddBase(NewFact("a"), "extra1", 1000, 1001, 0.5)
	if r.Dict() != d {
		t.Fatal("Add of known fact dropped the binding")
	}
	if fid = r.FidCol(); len(fid) != r.Len() || d.Key(keys.FactID(fid[r.Len()-1])) != "a" {
		t.Fatal("Add of known fact did not append its id")
	}
	// Adding an unknown fact drops the binding.
	r.AddBase(NewFact("unknown"), "extra2", 1000, 1001, 0.5)
	if r.Dict() != nil || r.FidCol() != nil {
		t.Fatal("Add of unknown fact kept the binding")
	}

	// Re-intern: a raw copy of the rows carries no binding (the rows hold
	// none); SetBinding hands it the ids, and a direct append to Tuples
	// afterwards leaves the column behind, which reads as unbound.
	r.Intern()
	cp := New(r.Schema)
	cp.Tuples = append(cp.Tuples, r.Tuples...)
	if cp.Dict() != nil || cp.FidCol() != nil {
		t.Fatal("a raw copy of the rows reads as bound")
	}
	if err := cp.SetBinding(r.Dict(), append([]int64(nil), r.FidCol()...)); err != nil || cp.Dict() != r.Dict() {
		t.Fatalf("SetBinding did not install the shared dict: %v", err)
	}
	cp.Tuples = append(cp.Tuples, r.Tuples[0])
	if cp.Dict() != nil || cp.FidCol() != nil || cp.BuildCols() != nil {
		t.Fatal("a relation resized behind its back still reads as bound")
	}
	if cp.ComputeProbs(); cp.Bind(r.Dict()) != true || len(cp.FidCol()) != cp.Len() {
		t.Fatal("rebinding a resized relation did not rebuild the column")
	}

	// Bind to a dict missing some facts must fail and unbind.
	small := keys.BuildDict([]string{"a"})
	if r.Bind(small) {
		t.Fatal("Bind succeeded despite missing facts")
	}
	if r.Dict() != nil {
		t.Fatal("failed Bind left relation bound")
	}
}

// TestInternAllSharedDict: one dictionary across relations makes
// cross-relation fact comparison an integer compare that agrees with the
// string compare.
func TestInternAllSharedDict(t *testing.T) {
	a := buildRel("a", []string{"m", "k", "z"}, 40, 2)
	b := buildRel("b", []string{"k", "q"}, 40, 3)
	d := InternAll(a, b)
	if a.Dict() != d || b.Dict() != d {
		t.Fatal("InternAll did not share one dict")
	}
	for i := range a.Tuples {
		for j := range b.Tuples {
			x, y := &a.Tuples[i], &b.Tuples[j]
			if SameFact(x, y) != (x.Key() == y.Key()) {
				t.Fatalf("SameFact diverges from key equality for %v vs %v", x, y)
			}
			if xid, yid := a.FidCol()[i], b.FidCol()[j]; (xid < yid) != (x.Key() < y.Key()) {
				t.Fatalf("id order diverges from key order for %v vs %v", x, y)
			}
		}
	}
}

// TestValidateDuplicateFreeInterned: the id-grouped duplicate check must
// agree with the string-grouped one, including the error text shape.
func TestValidateDuplicateFreeInterned(t *testing.T) {
	r := New(NewSchema("r", "F"))
	r.AddBase(NewFact("x"), "x1", 0, 5, 0.5)
	r.AddBase(NewFact("x"), "x2", 3, 8, 0.5)
	errStr := r.ValidateDuplicateFree()
	r.Intern()
	errID := r.ValidateDuplicateFree()
	if errStr == nil || errID == nil {
		t.Fatalf("overlap not detected: string=%v interned=%v", errStr, errID)
	}
	if errStr.Error() != errID.Error() {
		t.Fatalf("error text diverges:\n  string:   %v\n  interned: %v", errStr, errID)
	}

	ok := buildRel("ok", []string{"a", "b"}, 100, 4)
	ok.Intern()
	if err := ok.ValidateDuplicateFree(); err != nil {
		t.Fatalf("duplicate-free relation rejected: %v", err)
	}
}
