package lineage

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// testVarSeq makes variable names no earlier test — or earlier -count
// pass — has interned: the table is process-wide and never forgets.
var testVarSeq atomic.Int64

func freshVar(p float64) *Expr {
	return Var(fmt.Sprintf("marginals_test.v%d", testVarSeq.Add(1)), p)
}

func TestMarginalSlotIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(marginalSlot{}); got != marginalSlotBytes {
		t.Fatalf("marginalSlot is %d bytes, want %d", got, marginalSlotBytes)
	}
}

// TestMarginalTextsPublishOnce walks one slot through its life: a miss
// while empty, the first offer published, later offers ignored, the
// text served only for the bits it was rendered for, and a variable
// interned a chunk after a snapshot missed by it and served by the next.
func TestMarginalTextsPublishOnce(t *testing.T) {
	v := freshVar(0.25)
	m := SnapshotMarginalTexts()
	before := ReadMarginalTextStats()

	if got, ok := m.Append([]byte("p="), v.VarID(), 0.25); ok || string(got) != "p=" {
		t.Fatalf("an empty slot served %q", got)
	}
	m.Offer(v.VarID(), 0.25, []byte("0.25"))
	m.Offer(v.VarID(), 0.75, []byte("0.75")) // the slot is taken: ignored
	m.Offer(v.VarID(), 0.25, []byte("0.250"))
	if got, ok := m.Append([]byte("p="), v.VarID(), 0.25); !ok || string(got) != "p=0.25" {
		t.Fatalf("published slot served %q, %v", got, ok)
	}
	if got, ok := m.Append(nil, v.VarID(), 0.75); ok || len(got) != 0 {
		t.Fatalf("a slot rendered for 0.25 served %q for 0.75", got)
	}

	// A snapshot covers whole chunks; a chunk's worth of variables later
	// it has no slot for the newest, and neither serves nor publishes it.
	var long *Expr
	for i := 0; i <= marginalChunkSlots; i++ {
		long = freshVar(0.5)
	}
	m.Offer(long.VarID(), 0.5, []byte("0.5"))
	m2 := SnapshotMarginalTexts()
	if _, ok := m.Append(nil, long.VarID(), 0.5); ok {
		t.Fatal("a snapshot served a variable interned a chunk after it was taken")
	}
	if _, ok := m2.Append(nil, long.VarID(), 0.5); ok {
		t.Fatal("an offer through a snapshot without the slot was published")
	}
	m2.Offer(long.VarID(), 0.5, []byte("0.123456789012345678901")) // 23 bytes: no slot holds it
	if _, ok := m2.Append(nil, long.VarID(), 0.5); ok {
		t.Fatal("a text longer than a slot was published")
	}
	m2.Offer(long.VarID(), 0.5, []byte("0.12345678901234567890")[:20]) // exactly a slot
	if got, ok := m2.Append(nil, long.VarID(), 0.5); !ok || len(got) != 20 {
		t.Fatalf("a text that exactly fills a slot: %q, %v", got, ok)
	}

	if st := ReadMarginalTextStats(); st.Ready != before.Ready || st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatalf("counters moved before Flush: %+v → %+v", before, st)
	}
	m.Flush()
	m2.Flush()
	m2.Flush() // flushed counts are zeroed: adds nothing
	st := ReadMarginalTextStats()
	if st.Ready-before.Ready != 2 || st.Hits-before.Hits != 2 || st.Misses-before.Misses != 5 {
		t.Fatalf("after Flush: ready +%d hits +%d misses +%d, want +2 +2 +5",
			st.Ready-before.Ready, st.Hits-before.Hits, st.Misses-before.Misses)
	}
	if want := uint64(len(m2.chunks)) * marginalChunkSlots * marginalSlotBytes; st.Bytes != want || st.Bytes < uint64(vars.Len())*marginalSlotBytes {
		t.Fatalf("table holds %d bytes, want %d (%d variables interned)", st.Bytes, want, vars.Len())
	}
}

// TestMarginalTextsConcurrentPublish races many goroutines on the same
// fresh slots, each with its own snapshot (run under -race): every
// variable ends up published exactly once, and whoever reads it ready
// reads the whole text of the winner.
func TestMarginalTextsConcurrentPublish(t *testing.T) {
	const nvars, workers = 3000, 8 // spans several chunks
	leaves := make([]*Expr, nvars)
	for i := range leaves {
		leaves[i] = freshVar(0.1 + 0.9*float64(i)/nvars) // at most 19 bytes of text
	}
	before := ReadMarginalTextStats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := SnapshotMarginalTexts()
			defer m.Flush()
			var buf, text []byte
			for round := 0; round < 2; round++ {
				for _, e := range leaves {
					text = strconv.AppendFloat(text[:0], e.VarProb(), 'f', -1, 64)
					got, ok := m.Append(buf[:0], e.VarID(), e.VarProb())
					if !ok {
						m.Offer(e.VarID(), e.VarProb(), text)
						continue
					}
					if string(got) != string(text) {
						t.Errorf("variable %s served %q, want %q", e, got, text)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := ReadMarginalTextStats()
	if st.Ready-before.Ready != nvars {
		t.Fatalf("%d slots published for %d variables", st.Ready-before.Ready, nvars)
	}
	if lookups := st.Hits - before.Hits + st.Misses - before.Misses; lookups != 2*nvars*workers {
		t.Fatalf("%d lookups counted, want %d", lookups, 2*nvars*workers)
	}
}
