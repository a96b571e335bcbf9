//go:build tpinvariants

package relation

import (
	"strings"
	"testing"
	"unsafe"
)

// Under the tpinvariants tag the FidCol accessor re-checks that a
// foreign-memory column still lies inside the mapped region recorded by
// SetBinding; a column that escaped its region — a corrupted pointer
// fixup — must panic with a diagnostic naming the check site.
func TestFidColOutsideRegionPanics(t *testing.T) {
	r := New(NewSchema("mapped", "a"))
	r.AddBase(NewFact("x"), "i1", 0, 5, 0.5)
	r.AddBase(NewFact("y"), "i2", 1, 4, 0.25)
	r.Intern()
	r.Sort()
	// A "region" that cannot contain the heap-allocated column below.
	region := make([]byte, 8)
	if err := r.SetBinding(r.Dict(), []int64{0, 1}, region); err != nil {
		t.Fatalf("SetBinding: %v", err)
	}
	defer func() {
		msg, _ := recover().(string)
		if msg == "" {
			t.Fatalf("FidCol() over an escaped region did not panic")
		}
		if !strings.Contains(msg, "invariant violation at relation.FidCol(mapped)") {
			t.Fatalf("panic %q does not name the check site", msg)
		}
		if !strings.Contains(msg, "outside mapped region") {
			t.Fatalf("panic %q does not describe the violation", msg)
		}
	}()
	r.FidCol()
}

// A column genuinely inside the recorded region passes the check.
func TestFidColInsideRegionPasses(t *testing.T) {
	r := New(NewSchema("inreg", "a"))
	r.AddBase(NewFact("x"), "i1", 0, 5, 0.5)
	r.Intern()
	r.Sort()
	slab := make([]int64, 8) // 8-aligned backing, viewed both as bytes and as the column
	region := unsafe.Slice((*byte)(unsafe.Pointer(&slab[0])), 8*len(slab))
	fid := slab[2:3]
	if err := r.SetBinding(r.Dict(), fid, region); err != nil {
		t.Fatalf("SetBinding: %v", err)
	}
	if got := r.FidCol(); len(got) != 1 || &got[0] != &fid[0] {
		t.Fatalf("in-region column rejected")
	}
}
