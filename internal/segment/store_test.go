package segment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if !relation.Equal(r, got) {
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
	if !ok || !relation.Equal(r, got) {
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
	if !relation.Equal(r1, rels["old"]) || !relation.Equal(r2, rels["new"]) {
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
	if got, ok := rels["keep"]; !ok || !relation.Equal(r, got) {
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
