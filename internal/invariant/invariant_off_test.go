//go:build !tpinvariants

package invariant

import (
	"testing"

	"github.com/tpset/tpset/internal/relation"
)

// Without the tag every check must be a no-op: the same corrupt inputs
// that panic the tagged lane pass through untouched, so release builds
// carry zero assertion cost or risk.
func TestDisabledChecksAreNoOps(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the tpinvariants tag")
	}

	Assertf(false, "test.site", "must not fire untagged")

	unsorted := relation.New(relation.NewSchema("r", "F"))
	unsorted.AddBase(relation.NewFact("b"), "r1", 5, 9, 0.5)
	unsorted.AddBase(relation.NewFact("a"), "r2", 1, 3, 0.5)
	CheckSorted(unsorted, "test.site")

	dup := relation.New(relation.NewSchema("r", "F"))
	dup.AddBase(relation.NewFact("a"), "r1", 1, 6, 0.5)
	dup.AddBase(relation.NewFact("a"), "r2", 4, 9, 0.5)
	dup.Sort()
	CheckDuplicateFree(dup, "test.site")

	torn := relation.New(relation.NewSchema("r", "F"))
	torn.AddBase(relation.NewFact("a"), "r1", 1, 3, 0.5)
	torn.Intern()
	torn.Sort()
	torn.BuildCols()[0] = 7
	CheckColsMirror(torn, "test.site")
}
