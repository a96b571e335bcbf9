package relation

import (
	"strings"
	"testing"
)

func frozenFixture(t *testing.T) *Relation {
	t.Helper()
	r := New(NewSchema("fr", "a", "b"))
	r.AddBase(NewFact("x", "1"), "i1", 0, 5, 0.5)
	r.AddBase(NewFact("y", "2"), "i2", 2, 7, 0.25)
	r.Intern()
	r.Sort()
	r.Freeze()
	return r
}

func TestFrozenMutatorsPanic(t *testing.T) {
	r := frozenFixture(t)
	if !r.Frozen() {
		t.Fatalf("Frozen() = false after Freeze")
	}
	cases := map[string]func(){
		"Add":          func() { r.Add(Tuple{}) },
		"Bind":         func() { r.Bind(r.Dict()) },
		"Unbind":       func() { r.Unbind() },
		"Sort":         func() { r.Sort() },
		"ComputeProbs": func() { r.ComputeProbs() },
		"SetBinding":   func() { r.SetBinding(r.Dict(), r.FidCol()) },
		"Intern":       func() { r.Intern() },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if msg == "" {
					t.Errorf("%s on frozen relation did not panic", name)
				} else if !strings.Contains(msg, name) || !strings.Contains(msg, "frozen") {
					t.Errorf("%s panic message %q does not name the operation", name, msg)
				}
			}()
			fn()
		}()
	}
	// Reads stay open: the fid column (under either accessor name) and
	// clone both work.
	if r.FidCol() == nil || r.BuildCols() == nil {
		t.Fatalf("frozen relation lost its fid column")
	}
	c := r.Clone()
	if c.Frozen() {
		t.Fatalf("Clone inherited frozen")
	}
	c.Sort()
	if c.Dict() != r.Dict() || c.FidCol() == nil {
		t.Fatalf("Clone did not carry the binding")
	}
}

// Slice hands out frozen zero-copy views: rows and the fid column alias
// the parent's arrays with the capacity clipped, the binding is carried,
// and the view is read-only even over a mutable parent, which stays
// mutable itself.
func TestSliceIsFrozenZeroCopyView(t *testing.T) {
	r := New(NewSchema("sl", "a"))
	for i, f := range []string{"u", "v", "w", "x"} {
		r.AddBase(NewFact(f), "i"+f, int64(i), int64(i)+3, 0.5)
	}
	r.Intern()
	r.Sort()
	pc := r.BuildCols()
	v := r.Slice(1, 3)
	if !v.Frozen() || r.Frozen() {
		t.Fatalf("view frozen = %v, parent frozen = %v; want true, false", v.Frozen(), r.Frozen())
	}
	if v.Len() != 2 || &v.Tuples[0] != &r.Tuples[1] || cap(v.Tuples) != 2 || v.Dict() != r.Dict() {
		t.Fatalf("view does not alias parent rows [1,3) under the parent's dictionary")
	}
	vc := v.FidCol()
	if vc == nil || &vc[0] != &pc[1] || len(vc) != 2 || cap(vc) != 2 {
		t.Fatalf("view fid column does not alias the parent's [1,3)")
	}
	if e := r.Slice(2, 2); e.Len() != 0 || e.FidCol() == nil || e.Dict() != r.Dict() {
		t.Fatalf("empty view: %d rows, fid column %v, dict %p", e.Len(), e.FidCol(), e.Dict())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Sort on a view did not panic")
			}
		}()
		v.Sort()
	}()
	r.Unbind() // the parent was never frozen
	if u := r.Slice(0, 4); u.FidCol() != nil || u.Dict() != nil {
		t.Fatalf("view of an unbound relation carries a fid column or a dictionary")
	}
}

func TestSetBindingValidates(t *testing.T) {
	r := New(NewSchema("v", "a"))
	r.AddBase(NewFact("x"), "i1", 0, 5, 0.5)
	if err := r.SetBinding(nil, []int64{0}); err == nil {
		t.Fatalf("SetBinding without a dictionary accepted")
	}
	d := r.Clone().Intern()
	if err := r.SetBinding(d, []int64{1, 2}); err == nil || r.Dict() != nil {
		t.Fatalf("SetBinding with a mismatched length accepted (err %v, dict %p)", err, r.Dict())
	}
	good := []int64{0, 7}[:1] // spare capacity: the installed column is clipped
	if err := r.SetBinding(d, good); err != nil {
		t.Fatalf("SetBinding rejected a mirroring column: %v", err)
	}
	if got := r.FidCol(); len(got) != 1 || cap(got) != 1 || &got[0] != &good[0] || r.Dict() != d || r.Frozen() {
		t.Fatalf("FidCol() did not return the installed column, clipped, on an unfrozen relation")
	}
	r.AddBase(NewFact("x"), "i2", 5, 9, 0.5) // appends beside the caller's slab, not into it
	if got := r.FidCol(); len(got) != 2 || good[:2][1] != 7 {
		t.Fatalf("Add after SetBinding wrote into the caller's column: %v, slab %v", got, good[:2])
	}
}

func TestParseFactKeyInvertsKey(t *testing.T) {
	facts := []Fact{
		{"plain"},
		{""},
		{"a", "b"},
		{"", ""},
		{"with\x1fsep", "and\x1eesc"},
		{"\x1e", "\x1f", "mixed\x1e\x1fboth"},
		{"unicode✓", "tab\tand\nnl"},
	}
	for _, f := range facts {
		got, err := ParseFactKey(f.Key(), len(f))
		if err != nil {
			t.Fatalf("ParseFactKey(%q, %d): %v", f.Key(), len(f), err)
		}
		if !got.Equal(f) {
			t.Fatalf("ParseFactKey(%q) = %v, want %v", f.Key(), got, f)
		}
	}
}

func TestParseFactKeyRejectsInvalid(t *testing.T) {
	cases := []struct {
		key   string
		attrs int
	}{
		{"x", 0},              // no attributes
		{"a\x1e", 2},          // dangling escape
		{"a", 2},              // too few values
		{"a\x1fb\x1fc", 2},    // too many values
		{"\x1fa\x1fb\x1f", 2}, // separator count off by two
	}
	for _, c := range cases {
		if _, err := ParseFactKey(c.key, c.attrs); err == nil {
			t.Fatalf("ParseFactKey(%q, %d) accepted", c.key, c.attrs)
		}
	}
}
