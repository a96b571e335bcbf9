package relation_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// checkBinding is the relation's binding contract: bound means a column
// as long as Tuples whose every id names its row's fact, and a fact-run
// index with one run per stretch of equal ids that — sorted — counts the
// rows below each fact; unbound means no dictionary, no column under
// either accessor name and, with rows, no index. It builds the index
// each time, so the next mutator has one to leave stale.
func checkBinding(t *testing.T, ctx string, r *relation.Relation) {
	t.Helper()
	d, fid, x := r.Dict(), r.FidCol(), r.Runs()
	if d == nil {
		if fid != nil || r.BuildCols() != nil || (x == nil) != (r.Len() > 0) {
			t.Fatalf("%s: unbound relation hands out a fid column or a fact-run index", ctx)
		}
		return
	}
	if len(fid) != len(r.Tuples) || (len(fid) > 0 && &fid[0] != &r.BuildCols()[0]) {
		t.Fatalf("%s: bound relation of %d rows carries %d ids", ctx, len(r.Tuples), len(fid))
	}
	runs, sorted := 0, r.IsSorted()
	for i, id := range fid {
		if id < 0 || id >= int64(d.Len()) || d.Key(keys.FactID(id)) != r.Tuples[i].Fact.Key() || r.KeyAt(i) != r.Tuples[i].Fact.Key() {
			t.Fatalf("%s: row %d holds fact %s, its id %d names another", ctx, i, r.Tuples[i].Fact, id)
		}
		if i == 0 || id != fid[i-1] {
			runs++
			if sorted && x.Below(id) != i {
				t.Fatalf("%s: the fact-run index counts %d rows below fact %d, the column %d", ctx, x.Below(id), id, i)
			}
		}
	}
	if x == nil || x.Len() != runs || (sorted && x.Below(int64(d.Len())) != len(fid)) {
		t.Fatalf("%s: the fact-run index does not describe the column's %d runs over %d rows", ctx, runs, len(fid))
	}
}

// sameRows requires got to hold exactly the rows of want, in order
// (every base row has a variable of its own, so the rendered lineage
// identifies it — by value: a sort that moves rows moves their leaves
// into row order; intervals may have been edited).
func sameRows(t *testing.T, ctx string, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i].Lineage, want[i].Lineage
		if g.String() != w.String() || g.VarProb() != w.VarProb() || got[i].Prob != want[i].Prob ||
			got[i].T != want[i].T || !got[i].Fact.Equal(want[i].Fact) {
			t.Fatalf("%s: row %d is %s, want %s", ctx, i, got[i], want[i])
		}
	}
}

// refSorted is the reference order: a stable sort on (key string, Ts, Te).
func refSorted(rows []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), rows...)
	ks := make(map[*lineage.Expr]string, len(out))
	for i := range out {
		ks[out[i].Lineage] = out[i].Fact.Key()
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if ka, kb := ks[a.Lineage], ks[b.Lineage]; ka != kb {
			return ka < kb
		}
		if a.T.Ts != b.T.Ts {
			return a.T.Ts < b.T.Ts
		}
		return a.T.Te < b.T.Te
	})
	return out
}

// TestBindingSurvivesEveryMutator is the seeded property test of the
// relation-owned binding: random sequences of every operation that
// touches rows or binding keep "bound ⇒ the column mirrors the rows and
// the fact-run index describes the column" (checkBinding), never lose or
// reorder a row except where the operation says so, and Sort (and
// SortDuplicateFree on a duplicate-free relation) ≡ the reference
// stable sort on key strings — for
// one- and three-attribute facts, including values that contain the key
// codec's separator and escape bytes.
func TestBindingSurvivesEveryMutator(t *testing.T) {
	values := []string{"a", "b", "ab", "a\x1fb", "\x1f", "\x1e", "b\x1e\x1f", "zz", "a\x1e"}
	for _, attrs := range []int{1, 3} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(attrs) + seed))
			nextID := 0
			fact := func(pool int) relation.Fact {
				f := make(relation.Fact, attrs)
				for i := range f {
					f[i] = values[rng.Intn(pool)]
				}
				return f
			}
			base := func(f relation.Fact) relation.Tuple {
				ts := int64(rng.Intn(30))
				nextID++
				return relation.NewBase(f, fmt.Sprintf("x%d", nextID), ts, ts+1+int64(rng.Intn(5)), 0.5)
			}
			attrNames := []string{"A", "B", "C"}[:attrs]
			r := relation.New(relation.NewSchema("p", attrNames...))
			var model []relation.Tuple
			for i := 0; i < 5+rng.Intn(30); i++ {
				tu := base(fact(4))
				r.Add(tu)
				model = append(model, tu)
			}
			for step := 0; step < 60; step++ {
				op := rng.Intn(14)
				ctx := fmt.Sprintf("attrs=%d seed=%d step=%d op=%d", attrs, seed, step, op)
				wasBound := r.Dict() != nil
				switch op {
				case 0: // Add a fact the relation already holds
					tu := base(model[rng.Intn(len(model))].Fact)
					r.Add(tu)
					model = append(model, tu)
					if (r.Dict() != nil) != wasBound {
						t.Fatalf("%s: Add of a known fact changed the binding state", ctx)
					}
				case 1: // Add a fact no dictionary has seen
					tu := base(relation.NewFact(append([]string{fmt.Sprintf("new%d", nextID)}, fact(9)[1:]...)...))
					r.Add(tu)
					model = append(model, tu)
					if r.Dict() != nil {
						t.Fatalf("%s: Add of an unknown fact left the relation bound", ctx)
					}
				case 2: // Bind to a superset dictionary, or to one that misses a fact
					ks := []string{"\x00unused"}
					for i := range model {
						ks = append(ks, model[i].Fact.Key())
					}
					if rng.Intn(3) == 0 {
						if r.Bind(keys.BuildDict(ks[:1])) || r.Dict() != nil {
							t.Fatalf("%s: Bind to a dictionary missing every fact succeeded", ctx)
						}
					} else if d := keys.BuildDict(ks); !r.Bind(d) || r.Dict() != d {
						t.Fatalf("%s: Bind to a covering dictionary failed", ctx)
					}
				case 3:
					r.Unbind()
					if r.Dict() != nil {
						t.Fatalf("%s: still bound after Unbind", ctx)
					}
				case 4:
					if d := r.Intern(); r.Dict() != d {
						t.Fatalf("%s: Intern did not bind", ctx)
					}
				case 5, 6: // Sort ≡ reference, on the relation and on a clone of it
					// (SortDuplicateFree's when the check passes; a refused
					// one moves nothing)
					c := r.Clone()
					dupErr := r.ValidateDuplicateFree()
					r.Sort()
					if err := c.SortDuplicateFree(); (err != nil) != (dupErr != nil) {
						t.Fatalf("%s: SortDuplicateFree reports %v, ValidateDuplicateFree %v", ctx, err, dupErr)
					} else if err != nil {
						sameRows(t, ctx+" (refused)", c.Tuples, model)
						checkBinding(t, ctx+" (refused)", c)
						c.Sort()
					}
					model = refSorted(model)
					sameRows(t, ctx+" (clone)", c.Tuples, model)
					checkBinding(t, ctx+" (clone)", c)
					if !r.IsSorted() || !c.IsSorted() || (c.Dict() != nil) != wasBound {
						t.Fatalf("%s: sorted relation reads unsorted, or sorting the clone changed the binding state", ctx)
					}
					if op == 6 {
						r = c
					}
				case 7: // Clone: an unfrozen deep copy of rows and column
					c := r.Clone()
					if c.Frozen() || c.Dict() != r.Dict() || (len(c.Tuples) > 0 && &c.Tuples[0] == &r.Tuples[0]) ||
						(len(c.FidCol()) > 0 && &c.FidCol()[0] == &r.FidCol()[0]) {
						t.Fatalf("%s: Clone is frozen, rebound, or aliases its source", ctx)
					}
					r = c
				case 8: // Slice: a frozen view; continue on a clone of it
					lo := rng.Intn(len(model))
					hi := lo + 1 + rng.Intn(len(model)-lo)
					v := r.Slice(lo, hi)
					if !v.Frozen() || v.Dict() != r.Dict() || &v.Tuples[0] != &r.Tuples[lo] {
						t.Fatalf("%s: Slice is not a frozen view under the parent's dictionary", ctx)
					}
					sameRows(t, ctx+" (view)", v.Tuples, model[lo:hi])
					checkBinding(t, ctx+" (view)", v)
					r, model = v.Clone(), append([]relation.Tuple(nil), model[lo:hi]...)
				case 9: // Timeslice carries the binding onto the snapshot
					at := int64(rng.Intn(35))
					snap := r.Timeslice(at)
					var want []relation.Tuple
					for _, tu := range model {
						if tu.T.Contains(at) {
							tu.T.Ts, tu.T.Te = at, at+1
							want = append(want, tu)
						}
					}
					sameRows(t, ctx+" (snapshot)", snap.Tuples, want)
					checkBinding(t, ctx+" (snapshot)", snap)
					if (snap.Dict() != nil) != wasBound {
						t.Fatalf("%s: Timeslice changed the binding state", ctx)
					}
				case 10: // Coalesce: sorted, merged, binding carried; the source is untouched
					co := r.Coalesce()
					var want []relation.Tuple
					for _, tu := range refSorted(model) {
						if n := len(want); n > 0 && want[n-1].Fact.Equal(tu.Fact) && want[n-1].T.Te == tu.T.Ts &&
							lineage.EquivalentSyntactic(want[n-1].Lineage, tu.Lineage) {
							want[n-1].T.Te = tu.T.Te
							continue
						}
						want = append(want, tu)
					}
					sameRows(t, ctx+" (coalesced)", co.Tuples, want)
					checkBinding(t, ctx+" (coalesced)", co)
					if (co.Dict() != nil) != wasBound {
						t.Fatalf("%s: Coalesce changed the binding state", ctx)
					}
				case 11: // SetBinding: hand over ids the caller computed; a short column is refused
					ks := make([]string, len(model))
					for i := range model {
						ks[i] = model[i].Fact.Key()
					}
					d := keys.BuildDict(ks)
					fid := make([]int64, len(ks))
					for i, k := range ks {
						id, _ := d.ID(k)
						fid[i] = int64(id)
					}
					if err := r.SetBinding(d, fid[1:]); err == nil {
						t.Fatalf("%s: SetBinding accepted a column one id short", ctx)
					}
					if (r.Dict() != nil) != wasBound {
						t.Fatalf("%s: a refused SetBinding changed the binding state", ctx)
					}
					if err := r.SetBinding(d, fid); err != nil || r.Dict() != d {
						t.Fatalf("%s: SetBinding: %v", ctx, err)
					}
				case 12: // a direct append to the public field leaves the column behind
					tu := base(fact(9))
					r.Tuples = append(r.Tuples, tu)
					model = append(model, tu)
					if r.Dict() != nil || r.FidCol() != nil {
						t.Fatalf("%s: a relation resized behind its back still reads as bound", ctx)
					}
				case 13: // Arrange: every row and its id move to the rank given
					rank := rng.Perm(len(model))
					moved := make([]relation.Tuple, len(model))
					for i, j := range rank {
						moved[j] = model[i]
					}
					r.Arrange(rank)
					model = moved
					if (r.Dict() != nil) != wasBound {
						t.Fatalf("%s: Arrange changed the binding state", ctx)
					}
				}
				sameRows(t, ctx, r.Tuples, model)
				checkBinding(t, ctx, r)
			}
		}
	}
}
