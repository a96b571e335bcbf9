package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Tests of the marginal-text table as the wire encoder uses it. The
// table is process-wide and never forgets, so every test names its own
// variables, freshly on every -count pass.

var marginalTestSeq atomic.Int64

func freshPrefix() string { return fmt.Sprintf("mt%d.", marginalTestSeq.Add(1)) }

// reflectRows is the reference for a run of rows: one encoding/json
// line each.
func reflectRows(t *testing.T, rows []relation.Tuple) string {
	t.Helper()
	var out strings.Builder
	for i := range rows {
		var tj TupleJSON
		EncodeTupleInto(&tj, &rows[i], nil)
		line, err := reflectLine(&tj)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(line)
	}
	return out.String()
}

// encodeBatches runs the stream's per-batch encode over all of batches
// on a fresh encoder and returns the bytes.
func encodeBatches(t *testing.T, batches []*core.Batch) string {
	t.Helper()
	enc := getWireEncoder()
	defer enc.release()
	var out []byte
	for _, b := range batches {
		enc.buf = enc.buf[:0]
		if n, err := enc.batchLines(b); err != nil || n != len(b.Tuples) {
			t.Fatalf("batchLines = %d, %v on a batch of %d", n, err, len(b.Tuples))
		}
		out = append(out, enc.buf...)
	}
	return string(out)
}

// rowsBatch wraps rows as the block a cursor would hand the encoder.
func rowsBatch(rows ...relation.Tuple) []*core.Batch {
	return []*core.Batch{{Tuples: rows}}
}

// TestMarginalTextsColdAndWarmEncodeTheSameBytes: a drained result over
// variables no response has carried encodes to encoding/json's bytes
// the first time, when every marginal is formatted and published, and
// to the same bytes the second time, when none is formatted at all.
func TestMarginalTextsColdAndWarmEncodeTheSameBytes(t *testing.T) {
	batches, tuples := drainedBatches(t, "(r | s) - (r & s)", freshPrefix(), 2000, 5)
	var rows []relation.Tuple
	for _, b := range batches {
		rows = append(rows, b.Tuples...)
	}
	want := reflectRows(t, rows)

	before := lineage.ReadMarginalTextStats()
	if cold := encodeBatches(t, batches); cold != want {
		t.Fatal("cold encode differs from encoding/json")
	}
	afterCold := lineage.ReadMarginalTextStats()
	if warm := encodeBatches(t, batches); warm != want {
		t.Fatal("warm encode differs from encoding/json")
	}
	afterWarm := lineage.ReadMarginalTextStats()

	// Every generated marginal lies in [0.1, 1] and so fits a slot: each
	// variable of the result is formatted once, by the cold pass.
	published := afterCold.Ready - before.Ready
	if published == 0 || published > 4000 || afterCold.Misses-before.Misses != published {
		t.Fatalf("cold pass over %d tuples: %d slots published, %d marginals formatted", tuples, published, afterCold.Misses-before.Misses)
	}
	if afterWarm.Misses != afterCold.Misses || afterWarm.Ready != afterCold.Ready || afterWarm.Hits-afterCold.Hits < uint64(tuples) {
		t.Fatalf("warm pass over %d tuples: %d marginals formatted, %d slots published, %d served",
			tuples, afterWarm.Misses-afterCold.Misses, afterWarm.Ready-afterCold.Ready, afterWarm.Hits-afterCold.Hits)
	}
	if afterWarm.Bytes == 0 || afterWarm.Bytes > 32*uint64(len(lineage.VarNames())+1024) {
		t.Fatalf("table holds %d bytes for %d variables, want at most 32 each", afterWarm.Bytes, len(lineage.VarNames()))
	}
}

// TestMarginalTextsOneVariableTwoMarginals: two relations name the same
// variable with different marginals. Whichever is encoded first takes
// the slot; both keep encoding correctly, in either order, as bare rows
// and inside formulas.
func TestMarginalTextsOneVariableTwoMarginals(t *testing.T) {
	for _, firstA := range []bool{true, false} {
		name := freshPrefix() + "x"
		other := lineage.Var(name+".y", 0.5)
		mk := func(p float64) []*core.Batch {
			v := lineage.Var(name, p)
			lam := lineage.AndNot(other, v)
			return rowsBatch(
				relation.Tuple{Fact: relation.NewFact("f"), Lineage: v, T: interval.New(1, 5), Prob: p},
				relation.Tuple{Fact: relation.NewFact("g"), Lineage: lam, T: interval.New(2, 3), Prob: lam.Prob()},
			)
		}
		a, b := mk(0.25), mk(0.75)
		wantA, wantB := reflectRows(t, a[0].Tuples), reflectRows(t, b[0].Tuples)
		if !strings.Contains(wantA, `"p":0.25}`) || !strings.Contains(wantB, `:0.75}`) {
			t.Fatalf("reference lines carry no marginal:\n%s%s", wantA, wantB)
		}
		order := [][]*core.Batch{a, b, a, b}
		wants := []string{wantA, wantB, wantA, wantB}
		if !firstA {
			order, wants = [][]*core.Batch{b, a, b, a}, []string{wantB, wantA, wantB, wantA}
		}
		for i := range order {
			if got := encodeBatches(t, order[i]); got != wants[i] {
				t.Fatalf("first A %v, encode %d:\n got %s\nwant %s", firstA, i, got, wants[i])
			}
		}
	}
}

// TestMarginalTextsSlowPath: a marginal below 1e-6 renders in exponent
// form and one whose digits do not fit a slot is too long; neither is
// ever published, both are formatted on every encode, and the bytes
// stay encoding/json's.
func TestMarginalTextsSlowPath(t *testing.T) {
	prefix := freshPrefix()
	for _, p := range []float64{1e-7, 5e-324, 0.0012345678901234567, 0.00011111111111111112} {
		if text := strconv.FormatFloat(p, 'f', -1, 64); p >= 1e-6 && len(text) <= 20 {
			t.Fatalf("%s fits a slot: not a slow-path case", text)
		}
		name := fmt.Sprintf("%sslow%v", prefix, p)
		rows := rowsBatch(relation.NewBase(relation.NewFact("f"), name, 1, 5, p))
		want := reflectRows(t, rows[0].Tuples)
		before := lineage.ReadMarginalTextStats()
		for pass := 0; pass < 3; pass++ {
			if got := encodeBatches(t, rows); got != want {
				t.Fatalf("p=%v pass %d:\n got %s\nwant %s", p, pass, got, want)
			}
		}
		st := lineage.ReadMarginalTextStats()
		if st.Ready != before.Ready || st.Hits != before.Hits || st.Misses-before.Misses != 3 {
			t.Fatalf("p=%v (%s): ready +%d hits +%d misses +%d over three encodes, want +0 +0 +3",
				p, strings.TrimSpace(want), st.Ready-before.Ready, st.Hits-before.Hits, st.Misses-before.Misses)
		}
	}
	// The longest text a slot takes, for contrast: published, then served.
	p := 0.12345678901234568 // "0." and 17 digits
	rows := rowsBatch(relation.NewBase(relation.NewFact("f"), prefix+"fits", 1, 5, p))
	before := lineage.ReadMarginalTextStats()
	encodeBatches(t, rows)
	if got, want := encodeBatches(t, rows), reflectRows(t, rows[0].Tuples); got != want {
		t.Fatalf("got %s\nwant %s", got, want)
	}
	if st := lineage.ReadMarginalTextStats(); st.Ready-before.Ready != 1 || st.Hits-before.Hits != 1 || st.Misses-before.Misses != 1 {
		t.Fatalf("a 19-byte marginal: ready +%d hits +%d misses +%d, want +1 +1 +1", st.Ready-before.Ready, st.Hits-before.Hits, st.Misses-before.Misses)
	}
	// A non-finite tuple probability is still refused, bare variable or not.
	bad := relation.NewBase(relation.NewFact("f"), prefix+"nan", 1, 5, 0.5)
	bad.Prob = math.NaN()
	enc := getWireEncoder()
	defer enc.release()
	if n, err := enc.batchLines(rowsBatch(bad)[0]); err == nil || n != 0 || len(enc.buf) != 0 {
		t.Fatalf("NaN probability: %d rows, err %v, %q in the buffer", n, err, enc.buf)
	}
}

// TestMarginalTextsConcurrentEncoders: encoders on several goroutines
// meet the same fresh leaves at once (run under -race). Whoever wins
// each slot, every encoder writes encoding/json's bytes.
func TestMarginalTextsConcurrentEncoders(t *testing.T) {
	batches, _ := drainedBatches(t, "r | s", freshPrefix(), 2000, 9)
	var rows []relation.Tuple
	for _, b := range batches {
		rows = append(rows, b.Tuples...)
	}
	want := []byte(reflectRows(t, rows))

	const encoders = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < encoders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := getWireEncoder()
			defer enc.release()
			<-start
			for pass := 0; pass < 2; pass++ {
				var out []byte
				for _, b := range batches {
					enc.buf = enc.buf[:0]
					if _, err := enc.batchLines(b); err != nil {
						t.Error(err)
						return
					}
					out = append(out, enc.buf...)
				}
				if !bytes.Equal(out, want) {
					t.Errorf("encoder %d pass %d differs from encoding/json", g, pass)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
