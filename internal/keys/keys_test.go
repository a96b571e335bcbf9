package keys

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestDictOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ks []string
	for i := 0; i < 500; i++ {
		ks = append(ks, fmt.Sprintf("k%04d", rng.Intn(200)))
	}
	d := BuildDict(ks)
	if !sort.StringsAreSorted(d.Keys()) {
		t.Fatal("dict keys not sorted")
	}
	for i := 0; i < len(ks); i++ {
		for j := 0; j < len(ks); j++ {
			a, okA := d.ID(ks[i])
			b, okB := d.ID(ks[j])
			if !okA || !okB {
				t.Fatalf("missing key %q or %q", ks[i], ks[j])
			}
			if (a < b) != (ks[i] < ks[j]) || (a == b) != (ks[i] == ks[j]) {
				t.Fatalf("order not preserved: id(%q)=%d id(%q)=%d", ks[i], a, ks[j], b)
			}
		}
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := BuildDict([]string{"b", "a", "b", "c"})
	if d.Len() != 3 {
		t.Fatalf("Len=%d, want 3", d.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		id, ok := d.ID(k)
		if !ok || d.Key(id) != k {
			t.Fatalf("round trip of %q failed (id=%d ok=%v)", k, id, ok)
		}
	}
	if _, ok := d.ID("z"); ok {
		t.Fatal("ID of absent key reported ok")
	}
	if !d.Contains([]string{"a", "c"}) || d.Contains([]string{"a", "z"}) {
		t.Fatal("Contains wrong")
	}
}

func TestInternerStableAndConcurrent(t *testing.T) {
	in := NewInterner()
	a := in.Intern("x1")
	if b := in.Intern("x1"); b != a {
		t.Fatalf("re-intern changed id: %d vs %d", a, b)
	}
	if in.Name(a) != "x1" {
		t.Fatalf("Name(%d)=%q", a, in.Name(a))
	}
	if _, ok := in.Lookup("nope"); ok {
		t.Fatal("Lookup invented an id")
	}

	var wg sync.WaitGroup
	ids := make([][]VarID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]VarID, 100)
			for i := 0; i < 100; i++ {
				ids[g][i] = in.Intern(fmt.Sprintf("v%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned v%d as %d, goroutine 0 as %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
	if in.Len() != 101 { // x1 + v0..v99
		t.Fatalf("Len=%d, want 101", in.Len())
	}
}

// TestInternerNamesSnapshot pins the lock-free read side: a Names
// snapshot taken after an id was assigned resolves it without the lock,
// while other goroutines keep growing the arena (run under -race: the
// appends land beyond every earlier snapshot's length).
func TestInternerNamesSnapshot(t *testing.T) {
	in := NewInterner()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := fmt.Sprintf("g%d.v%d", g, i)
				id := in.Intern(name)
				if names := in.Names(); names[id] != name {
					t.Errorf("snapshot resolves id %d to %q, want %q", id, names[id], name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if names := in.Names(); len(names) != in.Len() || len(names) != 8000 {
		t.Fatalf("snapshot of %d names, Len %d, want 8000", len(names), in.Len())
	}
}

// TestBuildDictMatchesSortEverything compares BuildDict with the
// construction that sorts every key before removing duplicates, on
// inputs full of duplicates: in runs, scattered, and both.
func TestBuildDictMatchesSortEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var ks []string
		for n := 1 + rng.Intn(400); len(ks) < n; {
			k := fmt.Sprintf("f%03d", rng.Intn(1+rng.Intn(60)))
			for run := 1 + rng.Intn(5); run > 0; run-- {
				ks = append(ks, k)
			}
		}
		in := append([]string(nil), ks...)
		sorted := append([]string(nil), ks...)
		sort.Strings(sorted)
		var want []string
		for i, k := range sorted {
			if i == 0 || sorted[i-1] != k {
				want = append(want, k)
			}
		}
		d := BuildDict(ks)
		if fmt.Sprint(d.Keys()) != fmt.Sprint(want) {
			t.Fatalf("trial %d: keys %v, want %v", trial, d.Keys(), want)
		}
		for i, k := range want {
			if id, ok := d.ID(k); !ok || id != FactID(i) {
				t.Fatalf("trial %d: ID(%q) = %d, %v; want %d", trial, k, id, ok, i)
			}
		}
		if fmt.Sprint(ks) != fmt.Sprint(in) {
			t.Fatalf("trial %d: BuildDict modified its input", trial)
		}
	}
	if d := BuildDict(nil); d.Len() != 0 {
		t.Fatalf("empty input: Len=%d", d.Len())
	}
}
