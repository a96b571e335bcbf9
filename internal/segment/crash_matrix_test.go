package segment

import (
	"fmt"
	"os"
	"testing"

	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// The crash matrix is the durability proof: a fixed workload of puts,
// replacements, drops, and flushes runs against a MemFS-backed store,
// and a power cut is simulated at EVERY filesystem-operation boundary,
// in both torn-write and clean variants. After each cut the surviving
// disk — rendered under both the pessimistic fsync-only durability
// model and the optimistic everything-flushed model — is reopened, and
// the restored catalog must be bit-identical to an acknowledged state
// (relation.Diff on every relation, and every fid column naming its
// rows' facts in the restored dictionary): everything the workload was told
// was durable, plus at most the one mutation that was in flight when
// the power died. Any other outcome is silent corruption and fails the
// test. Reopen itself must never fail for this workload: no cut point
// leaves this disk unrecoverable.

// crashStep is one workload mutation plus the catalog state a client
// that saw it acknowledged is entitled to find after any crash.
type crashStep struct {
	label string
	apply func(s *Store) error
	// expect is the full expected catalog after this step is acked;
	// nil means "unchanged from the previous step" (Flush).
	expect map[string]*relation.Relation
}

// crashWorkload builds the step list. Relations are built once and
// reused across runs — Put treats them as immutable admitted pointers.
func crashWorkload(t *testing.T) []crashStep {
	t.Helper()
	a1 := testRelation(t, "alpha", 5)
	b1 := testRelation(t, "beta", 7)
	a2 := testRelation(t, "alpha", 9)
	c1 := testRelation(t, "gamma", 3)
	return []crashStep{
		{
			label:  "put alpha",
			apply:  func(s *Store) error { return s.Put("alpha", a1, nil) },
			expect: map[string]*relation.Relation{"alpha": a1},
		},
		{
			label:  "put beta",
			apply:  func(s *Store) error { return s.Put("beta", b1, nil) },
			expect: map[string]*relation.Relation{"alpha": a1, "beta": b1},
		},
		{
			label:  "replace alpha",
			apply:  func(s *Store) error { return s.Put("alpha", a2, nil) },
			expect: map[string]*relation.Relation{"alpha": a2, "beta": b1},
		},
		{
			label: "flush",
			apply: func(s *Store) error { return s.Flush() },
		},
		{
			label:  "drop beta",
			apply:  func(s *Store) error { return s.Drop("beta") },
			expect: map[string]*relation.Relation{"alpha": a2},
		},
		{
			label:  "put gamma",
			apply:  func(s *Store) error { return s.Put("gamma", c1, nil) },
			expect: map[string]*relation.Relation{"alpha": a2, "gamma": c1},
		},
		{
			label: "flush again",
			apply: func(s *Store) error { return s.Flush() },
		},
	}
}

// crashStates flattens the workload into states[k] = expected catalog
// after the first k steps are acked (states[0] is empty).
func crashStates(steps []crashStep) []map[string]*relation.Relation {
	states := []map[string]*relation.Relation{{}}
	for _, st := range steps {
		if st.expect != nil {
			states = append(states, st.expect)
		} else {
			states = append(states, states[len(states)-1])
		}
	}
	return states
}

// sameCatalog reports whether the restored catalog matches an expected
// state exactly: same names, equal relations. Whatever state it matches,
// each restored relation must be bound, its fid column naming its rows'
// facts (reftest.CheckBinding fails the test otherwise): equal rows
// under a scrambled column would scan as other facts.
func sameCatalog(t *testing.T, ctx string, got, want map[string]*relation.Relation) bool {
	t.Helper()
	for _, g := range got {
		reftest.CheckBinding(t, ctx, g)
	}
	if len(got) != len(want) {
		return false
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || relation.Diff(g, w) != "" {
			return false
		}
	}
	return true
}

const crashDir = "/data"

// runCrashWorkload opens a store over inj and applies steps until one
// fails, returning how many were acknowledged. A nil error acks a step
// — including a Put whose deferred apply failed after the WAL fsync,
// which is exactly the contract under test.
func runCrashWorkload(t *testing.T, inj *faultfs.Injector, steps []crashStep) (acked int) {
	t.Helper()
	s, err := OpenStoreFS(crashDir, inj)
	if err != nil {
		t.Fatalf("pre-fault open failed: %v", err)
	}
	for _, st := range steps {
		if err := st.apply(s); err != nil {
			break
		}
		acked++
	}
	return acked
}

func TestCrashMatrix(t *testing.T) {
	steps := crashWorkload(t)
	states := crashStates(steps)

	// Reference run: count the filesystem operations of the open phase
	// and of the whole workload, so the matrix can cut power at each
	// boundary after the open. Every step must ack on a healthy disk.
	refInj := faultfs.NewInjector(faultfs.NewMem())
	refStore, err := OpenStoreFS(crashDir, refInj)
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	openOps := refInj.OpCount()
	for _, st := range steps {
		if err := st.apply(refStore); err != nil {
			t.Fatalf("reference workload step %q: %v", st.label, err)
		}
	}
	totalOps := refInj.OpCount()
	if totalOps <= openOps {
		t.Fatalf("workload performed no filesystem ops (open=%d total=%d)", openOps, totalOps)
	}
	t.Logf("crash matrix: %d cut points × {clean,torn} × {durable,all} = %d recoveries",
		totalOps-openOps, (totalOps-openOps)*4)

	for torn := 0; torn < 2; torn++ {
		for n := openOps + 1; n <= totalOps; n++ {
			mem := faultfs.NewMem()
			inj := faultfs.NewInjector(mem)
			inj.SetTorn(torn == 1)
			inj.CrashAt(n)
			acked := runCrashWorkload(t, inj, steps)
			if !inj.Crashed() && acked != len(steps) {
				t.Fatalf("cut@%d torn=%d: power never cut yet workload stopped at %d", n, torn, acked)
			}

			for _, durable := range []bool{true, false} {
				view := mem.CrashView(durable)
				s2, err := OpenStoreFS(crashDir, view)
				if err != nil {
					t.Fatalf("cut@%d torn=%d durable=%v acked=%d: reopen rejected: %v", n, torn, durable, acked, err)
				}
				rels, _, err := s2.Restore()
				if err != nil {
					t.Fatalf("cut@%d torn=%d durable=%v acked=%d: restore failed: %v", n, torn, durable, acked, err)
				}
				// The recovered catalog must be an acknowledged state:
				// states[acked], or states[acked+1] when the in-flight
				// mutation's record fully reached the disk before the cut
				// (the client saw an error; an idempotent retry converges).
				ctx := fmt.Sprintf("cut@%d torn=%d durable=%v", n, torn, durable)
				ok := sameCatalog(t, ctx, rels, states[acked])
				if !ok && acked+1 < len(states) {
					ok = sameCatalog(t, ctx, rels, states[acked+1])
				}
				if !ok {
					t.Errorf("cut@%d torn=%d durable=%v: recovered catalog matches no acknowledged state (acked=%d, got %d relations)",
						n, torn, durable, acked, len(rels))
				}
				s2.Close()
			}
		}
	}
}

// A crash during recovery itself must be recoverable: cut power at
// every op boundary of the reopen-and-replay sequence, then reopen the
// result cleanly and demand the full acknowledged state. Replay is
// idempotent — records are folded into segment files before the WAL is
// truncated — so a half-finished recovery must lose nothing.
func TestCrashMatrixDuringRecovery(t *testing.T) {
	steps := crashWorkload(t)
	states := crashStates(steps)

	// Build a dirty disk: run the whole workload minus the final flush
	// so the WAL still carries records, then cut power with everything
	// flushed to "disk" (the optimistic view keeps the most state to
	// replay).
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	acked := runCrashWorkload(t, inj, steps[:len(steps)-1])
	if acked != len(steps)-1 {
		t.Fatalf("setup workload acked %d/%d", acked, len(steps)-1)
	}
	dirty := mem.CrashView(false)

	// Reference recovery to count its ops.
	refInj := faultfs.NewInjector(dirty.CrashView(false))
	if _, err := OpenStoreFS(crashDir, refInj); err != nil {
		t.Fatalf("reference recovery: %v", err)
	}
	recoverOps := refInj.OpCount()

	for n := uint64(1); n <= recoverOps; n++ {
		view := dirty.CrashView(false)
		rin := faultfs.NewInjector(view)
		rin.CrashAt(n)
		if _, err := OpenStoreFS(crashDir, rin); err == nil && rin.Crashed() {
			// An open that somehow succeeds after its disk died mid-way
			// would be suspect, but the injector fails every op after the
			// cut, so OpenStoreFS must have returned an error.
			t.Fatalf("recovery cut@%d: open succeeded after power cut", n)
		}
		// Second recovery, clean: both views of the half-recovered disk
		// must replay to the acknowledged state.
		for _, durable := range []bool{true, false} {
			second := view.CrashView(durable)
			s2, err := OpenStoreFS(crashDir, second)
			if err != nil {
				t.Fatalf("recovery cut@%d durable=%v: second recovery rejected: %v", n, durable, err)
			}
			rels, _, err := s2.Restore()
			if err != nil {
				t.Fatalf("recovery cut@%d durable=%v: restore failed: %v", n, durable, err)
			}
			if !sameCatalog(t, fmt.Sprintf("recovery cut@%d durable=%v", n, durable), rels, states[acked]) {
				t.Errorf("recovery cut@%d durable=%v: catalog does not match the acknowledged state (%d relations)", n, durable, len(rels))
			}
			s2.Close()
		}
	}
}

// The matrix allows "rejects loudly"; this pins that a genuinely
// unrecoverable artifact — a torn segment file without a WAL record to
// rebuild it — actually is loud, not silently partial.
func TestCrashMatrixLoudRejection(t *testing.T) {
	mem := faultfs.NewMem()
	s, err := OpenStoreFS(crashDir, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("alpha", testRelation(t, "alpha", 12), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Bit-flip the segment body behind the store's back.
	path := crashDir + "/" + segFileName("alpha")
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	f, err := mem.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := OpenStoreFS(crashDir, mem); err == nil {
		t.Fatal("open served a bit-flipped segment silently")
	} else {
		t.Logf("loud rejection: %v", err)
	}
}
