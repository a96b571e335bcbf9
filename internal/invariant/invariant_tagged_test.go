//go:build tpinvariants

package invariant

import (
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/relation"
)

// mustPanic runs fn and asserts it panics with a diagnostic containing
// both the site name and want — the two halves a tagged-lane failure
// needs to be actionable.
func mustPanic(t *testing.T, site, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic mentioning %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		if !strings.Contains(msg, "invariant violation at "+site) || !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name site %q and cause %q", msg, site, want)
		}
	}()
	fn()
}

func TestEnabledOn(t *testing.T) {
	if !Enabled {
		t.Fatal("Enabled must be true under the tpinvariants tag")
	}
}

func TestAssertf(t *testing.T) {
	Assertf(true, "test.site", "should not fire")
	mustPanic(t, "test.site", "n=3", func() {
		Assertf(false, "test.site", "n=%d", 3)
	})
}

func TestCheckSorted(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "F"))
	r.AddBase(relation.NewFact("b"), "r1", 5, 9, 0.5)
	r.AddBase(relation.NewFact("a"), "r2", 1, 3, 0.5)
	mustPanic(t, "test.sorted", "not in canonical", func() {
		CheckSorted(r, "test.sorted")
	})
	r.Sort()
	CheckSorted(r, "test.sorted")
	CheckSorted(nil, "test.sorted") // nil relation: nothing to check
}

func TestCheckDuplicateFree(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "F"))
	r.AddBase(relation.NewFact("a"), "r1", 1, 6, 0.5)
	r.AddBase(relation.NewFact("a"), "r2", 4, 9, 0.5)
	r.Sort()
	mustPanic(t, "test.dup", "not duplicate-free", func() {
		CheckDuplicateFree(r, "test.dup")
	})
	clean := relation.New(relation.NewSchema("r", "F"))
	clean.AddBase(relation.NewFact("a"), "r1", 1, 3, 0.5)
	clean.AddBase(relation.NewFact("a"), "r2", 4, 9, 0.5)
	clean.Sort()
	CheckDuplicateFree(clean, "test.dup")
}

func TestCheckColsMirror(t *testing.T) {
	build := func() *relation.Relation {
		r := relation.New(relation.NewSchema("r", "F"))
		r.AddBase(relation.NewFact("a"), "r1", 1, 3, 0.5)
		r.AddBase(relation.NewFact("b"), "r2", 2, 6, 0.7)
		r.Intern()
		r.Sort()
		r.BuildCols()
		return r
	}

	CheckColsMirror(build(), "test.mirror") // fresh column mirrors
	CheckColsMirror(nil, "test.mirror")

	// A relation without a cached column has nothing to mirror.
	bare := relation.New(relation.NewSchema("r", "F"))
	bare.AddBase(relation.NewFact("a"), "r1", 1, 3, 0.5)
	CheckColsMirror(bare, "test.mirror")

	// Everything but the fact lives only in the row: editing it cannot
	// diverge from the column.
	r := build()
	r.Tuples[0].Prob = 0.99
	r.Tuples[1].T.Te = 42
	CheckColsMirror(r, "test.mirror")

	// A column entry that names another fact than its row is exactly
	// the corruption the check exists to catch — whether the column or
	// the row moved.
	r = build()
	r.FidCol()[0] = 1
	mustPanic(t, "test.mirror", "does not mirror", func() {
		CheckColsMirror(r, "test.mirror")
	})

	r = build()
	r.Tuples[1].Fact = relation.NewFact("a")
	mustPanic(t, "test.mirror", "does not mirror", func() {
		CheckColsMirror(r, "test.mirror")
	})
}
