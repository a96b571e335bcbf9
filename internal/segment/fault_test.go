package segment

import (
	"errors"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/relation"
)

// A WAL append hit by ENOSPC must not acknowledge: Put returns a
// *WALError, the store latches degraded, later mutations are refused
// fast, and no view of the disk resurrects the failed relation.
func TestPutENOSPCNotAckedAndLatchesDegraded(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	s, err := OpenStoreFS(crashDir, inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailAt(1, faultfs.OpWrite, faultfs.ErrNoSpace)

	var werr *WALError
	err = s.Put("doomed", testRelation(t, "doomed", 6), nil)
	if !errors.As(err, &werr) {
		t.Fatalf("Put err = %v; want *WALError", err)
	}
	if !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("Put err = %v; want to unwrap to ErrNoSpace", err)
	}
	if s.Degraded() == nil {
		t.Fatal("store not degraded after failed append")
	}
	if got := s.WALErrorCount(); got == 0 {
		t.Fatal("WALErrorCount = 0 after failed append")
	}
	// Subsequent mutations are refused without touching the WAL.
	before := inj.OpCount()
	if err := s.Put("doomed", testRelation(t, "doomed", 6), nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put while degraded err = %v; want ErrDegraded", err)
	}
	if err := s.Drop("doomed"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Drop while degraded err = %v; want ErrDegraded", err)
	}
	if inj.OpCount() != before {
		t.Fatal("degraded mutations still touched the filesystem")
	}

	// No crash view resurrects the unacknowledged relation.
	for _, durable := range []bool{true, false} {
		s2, err := OpenStoreFS(crashDir, mem.CrashView(durable))
		if err != nil {
			t.Fatalf("reopen durable=%v: %v", durable, err)
		}
		rels, _, err := s2.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if len(rels) != 0 {
			t.Fatalf("durable=%v: unacked relation resurrected: %v", durable, rels)
		}
		s2.Close()
	}
}

// A failed WAL fsync is as fatal as a failed write: the bytes may or
// may not be on disk, so the mutation is unacknowledged and the store
// degrades.
func TestFsyncFailureDegrades(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.NewMem())
	s, err := OpenStoreFS(crashDir, inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailAt(1, faultfs.OpSync, nil)
	var werr *WALError
	if err := s.Put("x", testRelation(t, "x", 4), nil); !errors.As(err, &werr) {
		t.Fatalf("Put err = %v; want *WALError", err)
	}
	if s.Degraded() == nil {
		t.Fatal("store not degraded after failed fsync")
	}
}

// TryRecover after a torn append must truncate the garbage half-record
// before probing; otherwise every post-recovery append would sit beyond
// an invalid prefix and be silently lost at replay. This is the
// regression test for exactly that shape.
func TestRecoverAfterTornAppend(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	s, err := OpenStoreFS(crashDir, inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.SetTorn(true)
	inj.FailAt(1, faultfs.OpWrite, faultfs.ErrNoSpace)
	if err := s.Put("torn", testRelation(t, "torn", 10), nil); err == nil {
		t.Fatal("torn append acked")
	}
	if err := s.TryRecover(); err != nil {
		t.Fatalf("TryRecover: %v", err)
	}
	if s.Degraded() != nil {
		t.Fatalf("still degraded after recovery: %v", s.Degraded())
	}

	// Post-recovery acknowledgements must survive a crash — the whole
	// point of truncating the torn tail first.
	good := testRelation(t, "good", 8)
	if err := s.Put("good", good, nil); err != nil {
		t.Fatalf("post-recovery Put: %v", err)
	}
	s2, err := OpenStoreFS(crashDir, mem.CrashView(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rels, _, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rels["good"]
	if !ok || relation.Diff(good, got) != "" {
		t.Fatalf("post-recovery acked put lost after crash (ok=%v, rels=%d)", ok, len(rels))
	}
	if _, ok := rels["torn"]; ok {
		t.Fatal("unacked torn put resurrected")
	}
}

// An apply failure after a successful WAL fsync must keep the
// acknowledgement: Put returns nil, the store degrades, and the
// relation survives both recovery paths (TryRecover re-apply and crash
// replay).
func TestApplyFailureKeepsAcknowledgement(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	s, err := OpenStoreFS(crashDir, inj)
	if err != nil {
		t.Fatal(err)
	}
	s.applyThreshold = 1 // force a synchronous apply on every Put
	inj.FailAt(1, faultfs.OpRename, faultfs.ErrNoSpace)

	r := testRelation(t, "kept", 11)
	if err := s.Put("kept", r, nil); err != nil {
		t.Fatalf("Put with failing apply must still ack (WAL fsync succeeded): %v", err)
	}
	if s.Degraded() == nil {
		t.Fatal("store not degraded after failed apply")
	}

	// Crash now: the WAL replays the acked put.
	s2, err := OpenStoreFS(crashDir, mem.CrashView(true))
	if err != nil {
		t.Fatal(err)
	}
	rels, _, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rels["kept"]; !ok || relation.Diff(r, got) != "" {
		t.Fatalf("acked put lost after apply failure + crash (ok=%v)", ok)
	}
	s2.Close()

	// Or recover in place: TryRecover retries the apply.
	if err := s.TryRecover(); err != nil {
		t.Fatalf("TryRecover: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3, err := OpenStoreFS(crashDir, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rels, _, err = s3.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rels["kept"]; !ok || relation.Diff(r, got) != "" {
		t.Fatalf("acked put lost after in-place recovery (ok=%v)", ok)
	}
}

// TryRecover while the disk is still broken stays degraded; once the
// fault clears, it re-arms and the noop probe record replays cleanly.
func TestRecoverProbeRetriesUntilDiskReturns(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	s, err := OpenStoreFS(crashDir, inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.Fail(faultfs.OpMutate, faultfs.ErrNoSpace)
	if err := s.Put("x", testRelation(t, "x", 3), nil); err == nil {
		t.Fatal("Put acked on a dead disk")
	}
	if err := s.TryRecover(); err == nil {
		t.Fatal("TryRecover succeeded while the disk is still failing")
	}
	if s.Degraded() == nil {
		t.Fatal("degraded cleared while the disk is still failing")
	}

	inj.Clear()
	if err := s.TryRecover(); err != nil {
		t.Fatalf("TryRecover after disk recovery: %v", err)
	}
	if s.Degraded() != nil {
		t.Fatal("still degraded after successful recovery")
	}
	r := testRelation(t, "x", 3)
	if err := s.Put("x", r, nil); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	// The WAL now carries a noop probe followed by the put; a restart
	// replays both (the probe mutating nothing).
	s2, err := OpenStoreFS(crashDir, mem.CrashView(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rels, _, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rels["x"]; !ok || relation.Diff(r, got) != "" {
		t.Fatalf("put after noop probe lost at replay (ok=%v)", ok)
	}
}

func TestTryRecoverHealthyIsNoop(t *testing.T) {
	s, err := OpenStoreFS(crashDir, faultfs.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TryRecover(); err != nil {
		t.Fatalf("TryRecover on healthy store: %v", err)
	}
}

// TestPartialOpenFailsLoudly fails the open midway: a read fault on the
// WAL or on any one of four segments, read and decoded concurrently, and
// a segment that reads but fails decode. Each must fail the whole open
// with the fault named, never serve the segments that did decode.
func TestPartialOpenFailsLoudly(t *testing.T) {
	mem := faultfs.NewMem()
	s, err := OpenStoreFS(crashDir, mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := s.Put(name, testRelation(t, name, 6), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Case 1: the Nth read fails — the WAL's, then each segment's.
	for n := uint64(1); n <= 5; n++ {
		inj := faultfs.NewInjector(mem)
		inj.FailAt(n, faultfs.OpReadFile, nil)
		if _, err := OpenStoreFS(crashDir, inj); err == nil || !strings.Contains(err.Error(), faultfs.ErrInjected.Error()) {
			t.Fatalf("read fault at %d: open returned %v, want the injected fault", n, err)
		}
	}

	// Case 2: every read succeeds but one segment fails decode.
	corrupt := mem.CrashView(false) // private copy to corrupt
	path := crashDir + "/" + segFileName("c")
	data, err := corrupt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xFF
	f, err := corrupt.OpenFile(path, 0x2, 0o644) // os.O_RDWR
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenStoreFS(crashDir, corrupt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("open of a corrupt segment returned %v, want a checksum error", err)
	}
}
