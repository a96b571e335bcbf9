package tpset_test

import (
	"fmt"

	"github.com/tpset/tpset"
)

// The paper's running example (Fig. 1): which products are in stock but
// neither bought nor ordered, per day, with what probability?
func Example() {
	bought := tpset.NewRelation("a", "Product")
	bought.AddBase(tpset.F("milk"), "a1", 2, 10, 0.3)

	ordered := tpset.NewRelation("b", "Product")
	ordered.AddBase(tpset.F("milk"), "b1", 5, 9, 0.6)

	stock := tpset.NewRelation("c", "Product")
	stock.AddBase(tpset.F("milk"), "c1", 1, 4, 0.6)
	stock.AddBase(tpset.F("milk"), "c2", 6, 8, 0.7)

	q, _ := tpset.ParseQuery("c - (a | b)")
	out, _ := tpset.Eval(q, map[string]*tpset.Relation{
		"a": bought, "b": ordered, "c": stock,
	}) // in canonical (fact, Ts, Te) order
	for _, t := range out.Tuples {
		fmt.Println(t)
	}
	// Output:
	// ('milk', c1, [1,2), 0.6)
	// ('milk', c1∧¬a1, [2,4), 0.42)
	// ('milk', c2∧¬(a1∨b1), [6,8), 0.196)
}

// Set difference keeps facts the right relation holds with probability
// below 1 — the probabilistic side of −Tp.
func ExampleExcept() {
	observed := tpset.NewRelation("obs", "Item")
	observed.AddBase(tpset.F("pallet"), "o1", 0, 10, 0.9)

	manifest := tpset.NewRelation("man", "Item")
	manifest.AddBase(tpset.F("pallet"), "m1", 4, 6, 0.5)

	out, _ := tpset.Except(observed, manifest)
	out.Sort()
	for _, t := range out.Tuples {
		fmt.Println(t)
	}
	// Output:
	// ('pallet', o1, [0,4), 0.9)
	// ('pallet', o1∧¬m1, [4,6), 0.45)
	// ('pallet', o1, [6,10), 0.9)
}

// Windows exposes the lineage-aware temporal windows LAWA sweeps over
// (Example 3 / Fig. 6 of the paper).
func ExampleWindows() {
	c := tpset.NewRelation("c", "Product")
	c.AddBase(tpset.F("milk"), "c1", 1, 4, 0.6)
	c.AddBase(tpset.F("milk"), "c2", 6, 8, 0.7)
	a := tpset.NewRelation("a", "Product")
	a.AddBase(tpset.F("milk"), "a1", 2, 10, 0.3)

	for _, w := range tpset.Windows(c, a) {
		fmt.Println(w)
	}
	// Output:
	// (('milk'),[1,2), c1, null)
	// (('milk'),[2,4), c1, a1)
	// (('milk'),[4,6), null, a1)
	// (('milk'),[6,8), c2, a1)
	// (('milk'),[8,10), null, a1)
}
