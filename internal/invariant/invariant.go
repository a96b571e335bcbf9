// Package invariant is the build-tag assertion layer: machine-checked
// forms of the execution stack's algorithmic preconditions (Algorithms
// 1–4 assume duplicate-free inputs sorted by (fact, Ts)) and of the
// representation contracts (a fid column names the facts of its rows;
// every block of a plan is bound to the plan's one dictionary; a pooled
// batch's capacity account matches its backing storage).
//
// The checks are compiled in only under the tpinvariants build tag:
//
//	go test -tags tpinvariants ./...
//
// Without the tag, Enabled is the constant false, every helper body is
// `if !Enabled { return }`-guarded, and the compiler eliminates the
// checks entirely — callers on hot paths additionally guard the call
// site with `if invariant.Enabled` so even argument evaluation
// disappears from release builds. A violated invariant panics with a
// diagnostic naming the check site: these are programming errors, not
// runtime conditions, and the tagged CI lane exists to catch them the
// moment a change breaks an assumption some other layer relies on.
package invariant

import (
	"fmt"

	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/relation"
)

// violate panics with a uniform diagnostic. site names the checkpoint
// (e.g. "core.NewAdvancer(r)"), so a tagged-test failure points at the
// layer whose precondition broke, not just the data.
func violate(site, format string, args ...any) {
	panic(fmt.Sprintf("invariant violation at %s: %s", site, fmt.Sprintf(format, args...)))
}

// Assertf panics with the formatted diagnostic unless cond holds.
// No-op (and fully eliminated) without the tpinvariants tag.
func Assertf(cond bool, site, format string, args ...any) {
	if !Enabled || cond {
		return
	}
	violate(site, format, args...)
}

// CheckSorted asserts the canonical (fact, Ts, Te) order — the sort
// precondition of the Algorithm 1 sweep and of every merge.
func CheckSorted(r *relation.Relation, site string) {
	if !Enabled || r == nil {
		return
	}
	if !r.IsSorted() {
		violate(site, "relation %q (%d tuples) is not in canonical (fact, Ts) order", r.Schema.Name, r.Len())
	}
}

// CheckDuplicateFree asserts the duplicate-free precondition: no fact
// carries overlapping or adjacent intervals (Definition 1 well-
// formedness, assumed by Algorithms 2–4).
func CheckDuplicateFree(r *relation.Relation, site string) {
	if !Enabled || r == nil {
		return
	}
	if err := r.ValidateDuplicateFree(); err != nil {
		violate(site, "relation %q is not duplicate-free: %v", r.Schema.Name, err)
	}
}

// CheckColsMirror asserts the one mirror a relation carries: a bound
// relation's fid column holds, row for row, an id of the relation's
// dictionary that names the row's fact.
func CheckColsMirror(r *relation.Relation, site string) {
	if !Enabled || r == nil {
		return
	}
	fid := r.FidCol()
	if fid == nil {
		return // unbound: nothing to mirror
	}
	dict := r.Dict()
	for i, id := range fid {
		if id < 0 || id >= int64(dict.Len()) || dict.Key(keys.FactID(id)) != r.Tuples[i].Fact.Key() {
			violate(site, "relation %q: fid column row %d (%d) does not mirror the tuple's fact %s", r.Schema.Name, i, id, r.Tuples[i].Fact)
		}
	}
}
