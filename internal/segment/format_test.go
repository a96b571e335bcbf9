package segment

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// testRelation builds a sorted, interned, duplicate-free relation with
// multi-attribute facts (including values containing the key separator
// byte, exercising the escaped fact-key encoding) and varied
// probabilities.
func testRelation(tb testing.TB, name string, n int) *relation.Relation {
	tb.Helper()
	r := relation.New(relation.NewSchema(name, "obj", "loc"))
	for i := 0; i < n; i++ {
		fact := relation.NewFact(fmt.Sprintf("obj%03d", i%7), fmt.Sprintf("loc\x1f%d", i%5))
		r.AddBase(fact, fmt.Sprintf("x%d", i), int64(10*i), int64(10*i+5), 0.25+0.5*float64(i%3)/3)
	}
	r.Intern()
	r.Sort()
	return r
}

// reopen decodes data and materializes it against its own dictionary,
// the identity translation every uniform-generation restore takes.
func reopen(tb testing.TB, data []byte) (*File, *relation.Relation) {
	tb.Helper()
	f, err := Decode(data)
	if err != nil {
		tb.Fatalf("Decode: %v", err)
	}
	rel, err := f.Relation(keys.BuildDict(f.Keys))
	if err != nil {
		tb.Fatalf("Relation: %v", err)
	}
	return f, rel
}

func TestRoundTripByteIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 23} {
		r := testRelation(t, "trips", n)
		data, err := Encode(r)
		if err != nil {
			t.Fatalf("Encode(n=%d): %v", n, err)
		}
		f, rel := reopen(t, data)
		if f.N != n || rel.Len() != n {
			t.Fatalf("n=%d: decoded %d rows, materialized %d", n, f.N, rel.Len())
		}
		if !relation.Equal(r, rel) {
			t.Fatalf("n=%d: restored relation differs: %s", n, relation.Diff(r, rel))
		}
		if !rel.Frozen() {
			t.Fatalf("restored relation not frozen")
		}
		if rel.FidCol() == nil {
			t.Fatalf("restored relation has no fid column")
		}
		data2, err := Encode(rel)
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("n=%d: write→open→write not byte-identical (%d vs %d bytes)", n, len(data), len(data2))
		}
	}
}

func TestLineageDAGSharingSurvives(t *testing.T) {
	a, b := lineage.Var("a", 0.5), lineage.Var("b", 0.25)
	shared := lineage.And(a, lineage.Not(b))
	r := relation.New(relation.NewSchema("dag", "f"))
	r.Add(relation.NewDerived(relation.NewFact("f1"), shared, interval.New(0, 5)))
	r.Add(relation.NewDerived(relation.NewFact("f2"), lineage.Or(shared, a), interval.New(2, 9)))
	r.Intern()
	r.Sort()
	data, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	f, _ := reopen(t, data)
	l1, l2 := f.Lam[0], f.Lam[1] // sorted: f1 before f2
	left, _ := l2.Operands()
	if left != l1 {
		t.Fatalf("decoded lineage lost DAG sharing: f2's left operand is not f1's node")
	}
	// The shared-var leaf dedups too: f1's left child and f2's right
	// child are one arena node.
	v1, _ := l1.Operands()
	_, v2 := l2.Operands()
	if v1 != v2 {
		t.Fatalf("decoded lineage duplicated a shared variable leaf")
	}
}

func TestNilLineageRoundTrips(t *testing.T) {
	r := relation.New(relation.NewSchema("nil", "f"))
	tu := relation.NewDerivedLazy(relation.NewFact("f1"), lineage.Var("a", 0.5), interval.New(0, 5))
	r.Add(tu)
	r.Add(relation.Tuple{Fact: relation.NewFact("f2"), T: interval.New(1, 3), Prob: 0.5})
	r.Intern()
	r.Sort()
	data, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	f, _ := reopen(t, data)
	if f.Lam[0] == nil || f.Lam[1] != nil {
		t.Fatalf("nil lineage did not round-trip: %v, %v", f.Lam[0], f.Lam[1])
	}
	if data2, _ := Encode(mustRelation(t, f)); !bytes.Equal(data, data2) {
		t.Fatalf("nil-lineage segment not byte-stable")
	}
}

func mustRelation(tb testing.TB, f *File) *relation.Relation {
	tb.Helper()
	rel, err := f.Relation(keys.BuildDict(f.Keys))
	if err != nil {
		tb.Fatalf("Relation: %v", err)
	}
	return rel
}

// Every single-byte flip lands inside one of the two checksum domains,
// so decode must reject all of them — and name an offset while at it.
func TestEveryByteFlipRejected(t *testing.T) {
	data, err := Encode(testRelation(t, "flip", 4))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		f, err := Decode(mut)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if f != nil {
			t.Fatalf("flip at byte %d returned a file alongside the error", i)
		}
		if !strings.HasPrefix(err.Error(), "segment:") {
			t.Fatalf("flip at byte %d: error lacks segment: prefix: %v", i, err)
		}
	}
}

func TestEveryTruncationRejected(t *testing.T) {
	data, err := Encode(testRelation(t, "trunc", 4))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if !strings.HasPrefix(err.Error(), "segment:") {
			t.Fatalf("truncation to %d: error lacks segment: prefix: %v", n, err)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("truncation to %d: error does not name an offset: %v", n, err)
		}
	}
}

func TestRestoredRelationIsReadOnly(t *testing.T) {
	data, err := Encode(testRelation(t, "ro", 6))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	_, rel := reopen(t, data)
	mustPanic(t, "Sort", func() { rel.Sort() })
	mustPanic(t, "Add", func() { rel.Add(relation.Tuple{}) })
	mustPanic(t, "Unbind", func() { rel.Unbind() })
	mustPanic(t, "SetBinding", func() { rel.SetBinding(rel.Dict(), rel.FidCol()) })
	if rel.BuildCols() == nil {
		t.Fatalf("reading the fid column of a frozen relation failed")
	}
	// Clone is the sanctioned escape hatch: unfrozen, mutable, equal.
	c := rel.Clone()
	if c.Frozen() {
		t.Fatalf("clone of frozen relation is frozen")
	}
	c.Sort()
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on frozen relation did not panic", name)
		}
	}()
	fn()
}

// A crash can interleave segment generations: a relation written under
// an older, smaller dictionary must still restore correctly against
// the union dictionary (rebound by key — the heal path), beside a
// same-generation segment whose stored fid column is used as is.
func TestMixedDictionaryGenerationsHeal(t *testing.T) {
	r1 := testRelation(t, "old", 9)
	data1, err := Encode(r1) // r1's private dictionary
	if err != nil {
		t.Fatalf("Encode r1: %v", err)
	}
	// r2 holds three facts r1 lacks, so the union dictionary is a newer
	// generation than the one r1 was written under.
	r2 := testRelation(t, "new", 12)
	union := relation.InternAll(r1.Clone(), r2) // r2 now bound to the union
	r2.Sort()
	data2, err := Encode(r2)
	if err != nil {
		t.Fatalf("Encode r2: %v", err)
	}
	f1, err := Decode(data1)
	if err != nil {
		t.Fatalf("Decode r1: %v", err)
	}
	f2, err := Decode(data2)
	if err != nil {
		t.Fatalf("Decode r2: %v", err)
	}
	got1, err := f1.Relation(union)
	if err != nil {
		t.Fatalf("heal r1: %v", err)
	}
	got2, err := f2.Relation(union)
	if err != nil {
		t.Fatalf("restore r2: %v", err)
	}
	if !relation.Equal(r1, got1) {
		t.Fatalf("healed relation differs: %s", relation.Diff(r1, got1))
	}
	if !relation.Equal(r2, got2) {
		t.Fatalf("same-generation relation differs: %s", relation.Diff(r2, got2))
	}
	if got1.FidCol() == nil || got2.FidCol() == nil {
		t.Fatalf("restored relations lack their fid columns")
	}
	if got1.Dict() != union || got2.Dict() != union {
		t.Fatalf("restored relations not bound to the union dictionary")
	}
}

// TestDecodeIgnoresAlignment decodes one valid segment placed at every
// byte offset 1–7 past an 8-aligned address inside a larger buffer. The
// columns are read byte by byte through encoding/binary, so each decode
// must equal the aligned one and re-encode to the same bytes.
func TestDecodeIgnoresAlignment(t *testing.T) {
	data, err := Encode(testRelation(t, "align", 23))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	buf := make([]byte, len(data)+16)
	base := int((8 - uintptr(unsafe.Pointer(&buf[0]))%8) % 8)
	at := func(off int) []byte {
		seg := buf[base+off : base+off+len(data)]
		copy(seg, data)
		return seg
	}
	want, wantRel := reopen(t, at(0))
	for off := 1; off < 8; off++ {
		seg := at(off)
		if uintptr(unsafe.Pointer(&seg[0]))%8 == 0 {
			t.Fatalf("offset %d: buffer is 8-aligned", off)
		}
		f, rel := reopen(t, seg)
		if !slices.Equal(f.Fid, want.Fid) || !slices.Equal(f.Ts, want.Ts) || !slices.Equal(f.Te, want.Te) ||
			!slices.Equal(f.Prob, want.Prob) || !slices.Equal(f.Keys, want.Keys) {
			t.Fatalf("offset %d: decoded columns differ from the aligned decode", off)
		}
		if !relation.Equal(rel, wantRel) {
			t.Fatalf("offset %d: relation differs from the aligned decode: %s", off, relation.Diff(wantRel, rel))
		}
		again, err := Encode(rel)
		if err != nil {
			t.Fatalf("offset %d: re-Encode: %v", off, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("offset %d: re-encode is not byte-identical", off)
		}
	}
}
