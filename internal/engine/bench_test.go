package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
)

// BenchmarkIntersect compares the sequential driver against the engine at
// several worker counts on a multi-fact input (~100 tuples per fact, the
// partitionable workload).
func BenchmarkIntersect(b *testing.B) {
	const n = 100000
	r, s := datagen.FixedOverlapPair(n, n/100, 1)

	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Apply(core.OpIntersect, r, s, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		e := engine.New(engine.Config{Workers: w})
		b.Run(fmt.Sprintf("par-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Apply(core.OpIntersect, r, s, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
