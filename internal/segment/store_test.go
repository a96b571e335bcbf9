package segment

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/relation"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func restore(t *testing.T, s *Store) map[string]*relation.Relation {
	t.Helper()
	rels, _, err := s.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return rels
}

func TestStorePutFlushRestore(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	r := testRelation(t, "flights", 31)
	if err := s.Put("flights", r, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	if got := s2.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount = %d, want 1", got)
	}
	rels := restore(t, s2)
	got, ok := rels["flights"]
	if !ok {
		t.Fatalf("restore lost the relation; have %v", rels)
	}
	if relation.Diff(r, got) != "" {
		t.Fatalf("restored relation differs: %s", relation.Diff(r, got))
	}
	if !got.Frozen() || got.FidCol() == nil {
		t.Fatalf("restored relation not frozen with its fid column")
	}
}

// A Put is durable at WAL-fsync time: abandoning the store without
// Flush (the kill -9 shape) and reopening the directory must replay
// the record into a segment and restore the relation.
func TestWALReplayRestoresUnflushedPut(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	r := testRelation(t, "pending", 17)
	if err := s.Put("pending", r, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// No Flush, no Close: the segment file must not exist yet, only the
	// WAL record.
	if _, err := os.Stat(filepath.Join(dir, segFileName("pending"))); !os.IsNotExist(err) {
		t.Fatalf("segment file exists before apply (err=%v)", err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	rels := restore(t, s2)
	got, ok := rels["pending"]
	if !ok || relation.Diff(r, got) != "" {
		t.Fatalf("WAL replay did not restore the acknowledged put (ok=%v)", ok)
	}
	// Replay truncates: a third open sees a clean WAL and the same data.
	if data, err := os.ReadFile(filepath.Join(dir, walFileName)); err != nil || len(data) != 0 {
		t.Fatalf("WAL not truncated after replay: %d bytes, err=%v", len(data), err)
	}
}

func TestDropIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Put("gone", testRelation(t, "gone", 8), nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Drop("gone"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	// Crash before apply: the WAL holds the drop.
	s2 := openStore(t, dir)
	defer s2.Close()
	if rels := restore(t, s2); len(rels) != 0 {
		t.Fatalf("dropped relation survived restart: %v", rels)
	}
}

// A put replacing a relation under a rebuilt dictionary schedules
// sibling rewrites; crashing before they apply leaves mixed
// generations on disk, which restore heals into one union dictionary.
func TestCrashMidGenerationRewriteHeals(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	r1 := testRelation(t, "old", 9)
	if err := s.Put("old", r1, nil); err != nil {
		t.Fatalf("Put r1: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// New relation brings new facts: the catalog rebuilds the dictionary
	// and rebinds r1; the store is told about both.
	r2 := testRelation(t, "new", 5)
	r1b := r1.Clone()
	relation.InternAll(r1b, r2)
	if err := s.Put("new", r2, map[string]*relation.Relation{"old": r1b}); err != nil {
		t.Fatalf("Put r2: %v", err)
	}
	// Crash: r2 exists only in the WAL (new dict), old.seg still carries
	// the old generation.
	s2 := openStore(t, dir)
	defer s2.Close()
	rels, dict, err := s2.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dict == nil {
		t.Fatalf("no union dictionary")
	}
	if relation.Diff(r1, rels["old"]) != "" || relation.Diff(r2, rels["new"]) != "" {
		t.Fatalf("mixed-generation restore diverged")
	}
	if rels["old"].Dict() != dict || rels["new"].Dict() != dict {
		t.Fatalf("restored relations not on one shared dictionary")
	}
	// After a flush, both segments are rewritten onto one generation.
	if err := s2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestTornSegmentFileRejectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Put("torn", testRelation(t, "torn", 12), nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, segFileName("torn"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate segment: %v", err)
	}
	_, err = OpenStore(dir)
	if err == nil || !strings.Contains(err.Error(), "segment:") {
		t.Fatalf("torn segment not rejected: %v", err)
	}
}

// Garbage appended after the last fsynced record — the torn-tail shape
// of a crash mid-append — is discarded; everything before it replays.
func TestTornWALTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	r := testRelation(t, "keep", 7)
	if err := s.Put("keep", r, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	walPath := filepath.Join(dir, walFileName)
	wf, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := wf.Write([]byte("\x02\x00\x00\x00\x00\x00\x00\x00torn")); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	wf.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	rels := restore(t, s2)
	if got, ok := rels["keep"]; !ok || relation.Diff(r, got) != "" {
		t.Fatalf("valid WAL prefix lost with the torn tail (ok=%v)", ok)
	}
}

// Leftover .tmp files from a crash mid-rename are swept at open and
// never surface as segments.
func TestLeftoverTmpSwept(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, segFileName("half")+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatalf("plant tmp: %v", err)
	}
	s := openStore(t, dir)
	defer s.Close()
	if rels := restore(t, s); len(rels) != 0 {
		t.Fatalf("tmp leftover surfaced as a relation: %v", rels)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp leftover not removed (err=%v)", err)
	}
}

// Relation names are escaped into file names, so separators and dots
// cannot escape the data dir.
func TestHostileRelationNames(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for _, name := range []string{"../evil", "a/b", "..", "wal.log"} {
		r := testRelation(t, name, 3)
		if err := s.Put(name, r, nil); err != nil {
			t.Fatalf("Put(%q): %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	rels := restore(t, s2)
	if len(rels) != 4 {
		t.Fatalf("restored %d of 4 hostile-named relations: %v", len(rels), rels)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, ".."))
	for _, e := range entries {
		if strings.Contains(e.Name(), "evil") {
			t.Fatalf("segment escaped the data dir: %s", e.Name())
		}
	}
}

// TestRestoredRelationOutlivesStoreClose restores two relations from a
// directory on the real filesystem, closes the store, and then runs a
// query over them: a restored relation owns its rows and its fid column,
// so the query after Close reads what it read before.
func TestRestoredRelationOutlivesStoreClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreFS(dir, faultfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"r": 40, "s": 29} {
		if err := s.Put(name, testRelation(t, name, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStoreFS(dir, faultfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	rels := restore(t, s2)
	query := func() *relation.Relation {
		t.Helper()
		out, err := core.Apply(core.OpUnion, rels["r"], rels["s"], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before, fid := query(), slices.Clone(rels["r"].FidCol())
	if before.Len() == 0 || len(fid) != 40 {
		t.Fatalf("query over the restored relations produced %d rows, fid column %d", before.Len(), len(fid))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if after := query(); relation.Diff(before, after) != "" {
		t.Fatalf("query after Close differs: %s", relation.Diff(before, after))
	}
	if !slices.Equal(rels["r"].FidCol(), fid) {
		t.Fatalf("fid column changed across Close")
	}
}

// TestClosedStoreRefusesWrites closes a healthy store and a degraded one:
// every later write is refused with an error wrapping ErrDegraded — the
// server's 503 — both report themselves degraded, and TryRecover re-arms
// neither.
func TestClosedStoreRefusesWrites(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		inj := faultfs.NewInjector(faultfs.NewMem())
		s, err := OpenStoreFS(crashDir, inj)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("x", testRelation(t, "x", 4), nil); err != nil {
			t.Fatal(err)
		}
		if degraded {
			inj.FailAt(1, faultfs.OpSync, nil)
			if err := s.Put("y", testRelation(t, "y", 4), nil); err == nil {
				t.Fatal("Put acknowledged despite a failed fsync")
			}
		}
		s.Close()
		for verb, write := range map[string]func() error{
			"Put":        func() error { return s.Put("z", testRelation(t, "z", 3), nil) },
			"Drop":       func() error { return s.Drop("x") },
			"Flush":      s.Flush,
			"TryRecover": s.TryRecover,
		} {
			if err := write(); !errors.Is(err, ErrDegraded) {
				t.Fatalf("degraded=%v: %s after Close returned %v, want ErrDegraded", degraded, verb, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("degraded=%v: second Close: %v", degraded, err)
		}
		if s.Degraded() == nil {
			t.Fatalf("degraded=%v: closed store reports itself healthy", degraded)
		}
	}
}
