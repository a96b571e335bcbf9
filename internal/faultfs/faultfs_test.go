package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeSyncedFile(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func TestMemDurabilityModel(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}

	// a: created, written, synced, dir synced — fully durable.
	writeSyncedFile(t, m, "/d/a", []byte("alpha"))
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	// b: created and synced, but the directory never fsynced after —
	// content is durable, the name is not.
	writeSyncedFile(t, m, "/d/b", []byte("beta"))
	// a gets more bytes that are never synced.
	f, err := m.OpenFile("/d/a", os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-tail")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	durable := m.CrashView(true)
	if got, err := durable.ReadFile("/d/a"); err != nil || string(got) != "alpha" {
		t.Fatalf("durable view of a = %q, %v; want synced prefix %q", got, err, "alpha")
	}
	if _, err := durable.ReadFile("/d/b"); !os.IsNotExist(err) {
		t.Fatalf("durable view of b: err = %v; want not-exist (name never made durable)", err)
	}

	all := m.CrashView(false)
	if got, _ := all.ReadFile("/d/a"); string(got) != "alpha-tail" {
		t.Fatalf("all view of a = %q; want everything written", got)
	}
	if got, _ := all.ReadFile("/d/b"); string(got) != "beta" {
		t.Fatalf("all view of b = %q; want %q", got, "beta")
	}
}

func TestMemRenameDurability(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	writeSyncedFile(t, m, "/d/x.tmp", []byte("payload"))
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/d/x.tmp", "/d/x.seg"); err != nil {
		t.Fatal(err)
	}

	// Rename without a directory fsync: the durable view still holds
	// the old name, with the synced content.
	v := m.CrashView(true)
	if got, err := v.ReadFile("/d/x.tmp"); err != nil || string(got) != "payload" {
		t.Fatalf("durable pre-syncdir: x.tmp = %q, %v", got, err)
	}
	if _, err := v.ReadFile("/d/x.seg"); !os.IsNotExist(err) {
		t.Fatalf("durable pre-syncdir: x.seg err = %v; want not-exist", err)
	}

	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	v = m.CrashView(true)
	if got, err := v.ReadFile("/d/x.seg"); err != nil || string(got) != "payload" {
		t.Fatalf("durable post-syncdir: x.seg = %q, %v", got, err)
	}
	if _, err := v.ReadFile("/d/x.tmp"); !os.IsNotExist(err) {
		t.Fatalf("durable post-syncdir: x.tmp err = %v; want not-exist", err)
	}
}

func TestMemTruncateOnOpen(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	writeSyncedFile(t, m, "/d/wal", []byte("old-records"))
	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenFile("/d/wal", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, _ := m.ReadFile("/d/wal"); len(got) != 0 {
		t.Fatalf("O_TRUNC left %q", got)
	}
	// Truncation is a content mutation: not durable until Sync.
	if got, _ := m.CrashView(true).ReadFile("/d/wal"); string(got) != "old-records" {
		t.Fatalf("durable content after unsynced O_TRUNC = %q; want old bytes", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.CrashView(true).ReadFile("/d/wal"); len(got) != 0 {
		t.Fatalf("durable content after synced O_TRUNC = %q; want empty", got)
	}
}

func TestInjectorFailAt(t *testing.T) {
	in := NewInjector(NewMem())
	in.MkdirAll("/d", 0o755)
	in.FailAt(2, OpSync, ErrNoSpace)

	f, err := in.OpenFile("/d/wal", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if _, err := f.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("second sync err = %v; want ErrNoSpace", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("one-shot fault should clear: %v", err)
	}
}

func TestInjectorCrashStopAndTorn(t *testing.T) {
	m := NewMem()
	in := NewInjector(m)
	in.SetTorn(true)
	in.MkdirAll("/d", 0o755)

	f, err := in.OpenFile("/d/wal", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Ops so far: mkdir(1), open(2). Crash on the next one — the write.
	in.CrashAt(3)
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write err = %v; want ErrCrashed", err)
	}
	if n != 5 {
		t.Fatalf("torn write landed %d bytes; want half (5)", n)
	}
	if got, _ := m.ReadFile("/d/wal"); !bytes.Equal(got, []byte("01234")) {
		t.Fatalf("torn write content = %q", got)
	}
	// Crash-stop: everything after the cut fails too.
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err = %v; want ErrCrashed", err)
	}
	if _, err := in.ReadFile("/d/wal"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read err = %v; want ErrCrashed", err)
	}
	if !in.Crashed() {
		t.Fatal("Crashed() = false after cut")
	}
}

func TestInjectorLatchAndClear(t *testing.T) {
	in := NewInjector(NewMem())
	in.MkdirAll("/d", 0o755)
	in.Fail(OpMutate, ErrNoSpace)
	if _, err := in.OpenFile("/d/x", os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("latched open err = %v; want ErrNoSpace", err)
	}
	// Reads stay up while mutations fail — the degraded-mode contract.
	if _, err := in.ReadDirNames("/d"); err != nil {
		t.Fatalf("read during mutate latch: %v", err)
	}
	in.Clear()
	if _, err := in.OpenFile("/d/x", os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		t.Fatalf("open after Clear: %v", err)
	}
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fsys OS
	sub := filepath.Join(dir, "data")
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSyncedFile(t, fsys, filepath.Join(sub, "a.seg"), []byte("hello-segment"))
	if err := fsys.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDirNames(sub)
	if err != nil || len(names) != 1 || names[0] != "a.seg" {
		t.Fatalf("ReadDirNames = %v, %v", names, err)
	}
	data, err := fsys.ReadFile(filepath.Join(sub, "a.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello-segment" {
		t.Fatalf("read content = %q", data)
	}
	if err := fsys.Rename(filepath.Join(sub, "a.seg"), filepath.Join(sub, "b.seg")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(sub, "b.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.ReadFile(filepath.Join(sub, "b.seg")); !os.IsNotExist(err) {
		t.Fatalf("ReadFile after remove: %v; want not-exist", err)
	}
}

// TestTrigger: the chaos switch `tpserve -chaos-enospc-file` arms.
// Mutations fail with ErrNoSpace only while the sentinel exists, reads
// pass throughout, and Clear disarms the latch with the sentinel still
// in place.
func TestTrigger(t *testing.T) {
	sentinel := filepath.Join(t.TempDir(), "enospc")
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	in := NewInjector(m)
	in.FailWhileExists(sentinel, OpMutate, ErrNoSpace)

	writeSyncedFile(t, in, "/d/a", []byte("pre"))

	if err := os.WriteFile(sentinel, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := in.OpenFile("/d/b", os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("armed open err = %v; want ErrNoSpace", err)
	}
	if got, err := in.ReadFile("/d/a"); err != nil || string(got) != "pre" {
		t.Fatalf("armed read = %q, %v; reads must keep working", got, err)
	}

	if err := os.Remove(sentinel); err != nil {
		t.Fatal(err)
	}
	writeSyncedFile(t, in, "/d/b", []byte("post"))

	if err := os.WriteFile(sentinel, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := in.Remove("/d/b"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("re-armed remove err = %v; want ErrNoSpace", err)
	}
	in.Clear()
	writeSyncedFile(t, in, "/d/c", []byte("cleared"))
}
