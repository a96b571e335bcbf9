package interval

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnEmpty(t *testing.T) {
	for _, c := range [][2]Time{{3, 3}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(c[0], c[1])
		}()
	}
}

func TestBasicPredicates(t *testing.T) {
	iv := New(2, 5) // {2,3,4}
	if !iv.Valid() || iv.Duration() != 3 {
		t.Fatalf("bad interval %v", iv)
	}
	for _, tc := range []struct {
		t    Time
		want bool
	}{{1, false}, {2, true}, {4, true}, {5, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if iv.String() != "[2,5)" {
		t.Errorf("String: %s", iv)
	}
}

func TestOverlapAdjacency(t *testing.T) {
	cases := []struct {
		a, b          Interval
		overlaps, adj bool
	}{
		{New(1, 3), New(3, 5), false, true}, // meets: half-open, no shared point
		{New(1, 3), New(2, 5), true, false},
		{New(1, 10), New(4, 6), true, false},
		{New(1, 2), New(5, 6), false, false},
		{New(1, 2), New(1, 2), true, false},
		{New(5, 6), New(1, 5), false, true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlaps {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.overlaps)
		}
		if got := c.b.Overlaps(c.a); got != c.overlaps {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
		if got := c.a.Adjacent(c.b); got != c.adj {
			t.Errorf("%v adjacent %v = %v, want %v", c.a, c.b, got, c.adj)
		}
	}
}

func TestIntersectUnion(t *testing.T) {
	a, b := New(1, 5), New(3, 8)
	iv, ok := a.Intersect(b)
	if !ok || iv != New(3, 5) {
		t.Fatalf("intersect: %v %v", iv, ok)
	}
	u, ok := a.Union(b)
	if !ok || u != New(1, 8) {
		t.Fatalf("union: %v %v", u, ok)
	}
	if _, ok := New(1, 2).Intersect(New(4, 5)); ok {
		t.Error("disjoint intervals intersected")
	}
	if _, ok := New(1, 2).Union(New(4, 5)); ok {
		t.Error("union across a gap must fail")
	}
	if u, ok := New(1, 2).Union(New(2, 4)); !ok || u != New(1, 4) {
		t.Errorf("adjacent union: %v %v", u, ok)
	}
}

func TestSplitAt(t *testing.T) {
	l, r, ok := New(1, 5).SplitAt(3)
	if !ok || l != New(1, 3) || r != New(3, 5) {
		t.Fatalf("split: %v %v %v", l, r, ok)
	}
	if _, _, ok := New(1, 5).SplitAt(1); ok {
		t.Error("split at start must fail")
	}
	if _, _, ok := New(1, 5).SplitAt(5); ok {
		t.Error("split at end must fail")
	}
}

func TestCompare(t *testing.T) {
	if New(1, 3).Compare(New(1, 3)) != 0 ||
		New(1, 3).Compare(New(2, 3)) != -1 ||
		New(2, 3).Compare(New(1, 9)) != 1 ||
		New(1, 3).Compare(New(1, 4)) != -1 ||
		New(1, 5).Compare(New(1, 4)) != 1 {
		t.Error("Compare ordering wrong")
	}
}

// Property: Intersect is the set intersection of contained points.
func TestIntersectPointwiseProperty(t *testing.T) {
	f := func(a1, d1, a2, d2 uint8) bool {
		x := New(Time(a1), Time(a1)+1+Time(d1%16))
		y := New(Time(a2), Time(a2)+1+Time(d2%16))
		iv, ok := x.Intersect(y)
		for t := Time(0); t < 300; t++ {
			in := x.Contains(t) && y.Contains(t)
			got := ok && iv.Contains(t)
			if in != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
