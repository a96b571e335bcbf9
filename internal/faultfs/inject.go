package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"sync"
)

// Op is a bitmask of filesystem operation kinds, used to target
// injected faults.
type Op uint32

const (
	OpMkdir Op = 1 << iota
	OpReadDir
	OpReadFile
	OpOpen
	OpWrite
	OpSync
	OpTruncate
	OpSeek
	OpClose
	OpRemove
	OpRename
	OpSyncDir

	// OpAny matches every injectable operation.
	OpAny Op = 1<<12 - 1
	// OpMutate matches the operations that change durable state — the
	// set a full disk fails.
	OpMutate Op = OpOpen | OpWrite | OpSync | OpTruncate | OpRemove | OpRename | OpSyncDir
)

var (
	// ErrCrashed is returned by every operation after a simulated power
	// cut: the process can issue calls, but nothing reaches the disk.
	ErrCrashed = errors.New("faultfs: simulated power cut")
	// ErrInjected is the default error for injected single-op faults.
	ErrInjected = errors.New("faultfs: injected fault")
	// ErrNoSpace mimics ENOSPC without binding the package to syscall
	// errnos on every platform.
	ErrNoSpace = errors.New("faultfs: no space left on device")
)

// Injector wraps an FS and fails chosen operations deterministically.
// Operations are numbered from 1 in call order across the whole FS.
// Three fault shapes compose:
//
//   - CrashAt(n): operation n and every later one fail with ErrCrashed
//     — a power cut at an exact boundary. With SetTorn(true) and op n a
//     write, the first half of the bytes still land before the cut.
//   - FailAt(n, mask, err): the nth operation matching mask fails once
//     with err; everything else proceeds. With SetTorn(true) a failing
//     write is torn the same way.
//   - Fail(mask, err)/Clear(): a latched fault — every matching
//     operation fails until cleared — for driving a live server into
//     and out of disk failure. FailWhileExists arms the same latch only
//     while a file exists on the host filesystem, so a process outside
//     the server can flip it (`tpserve -chaos-enospc-file`).
type Injector struct {
	inner FS

	mu        sync.Mutex
	ops       uint64
	crashAt   uint64
	crashed   bool
	failAt    uint64
	failSeen  uint64
	failMask  Op
	failErr   error
	torn      bool
	latchMask Op
	latchErr  error
	latchPath string
}

// NewInjector wraps inner with no faults armed.
func NewInjector(inner FS) *Injector { return &Injector{inner: inner} }

// CrashAt arms a power cut at operation n (1-based). 0 disarms.
func (in *Injector) CrashAt(n uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = n
}

// FailAt arms a one-shot fault: the nth operation matching mask returns
// err. A nil err means ErrInjected.
func (in *Injector) FailAt(n uint64, mask Op, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	in.failAt, in.failSeen, in.failMask, in.failErr = n, 0, mask, err
}

// Fail latches a fault on every operation matching mask until Clear.
func (in *Injector) Fail(mask Op, err error) { in.FailWhileExists("", mask, err) }

// FailWhileExists is Fail's latch, armed only while a file exists at
// path on the host filesystem: `touch` it to pull the disk out from
// under a running process, remove it to give the disk back. An empty
// path arms the latch unconditionally, as Fail does.
func (in *Injector) FailWhileExists(path string, mask Op, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	in.latchMask, in.latchErr, in.latchPath = mask, err, path
}

// Clear disarms every fault, including a latched crash.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt, in.crashed = 0, false
	in.failAt, in.failSeen = 0, 0
	in.latchMask, in.latchErr, in.latchPath = 0, nil, ""
}

// SetTorn makes a failing or crashing write land its first half before
// erroring, modelling a torn page.
func (in *Injector) SetTorn(torn bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.torn = torn
}

// OpCount returns how many operations have been observed.
func (in *Injector) OpCount() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Crashed reports whether a CrashAt point has been reached.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// step numbers one operation and decides its fate. torn reports
// whether a failing write should still land its first half.
func (in *Injector) step(op Op) (fail error, torn bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.crashed {
		return ErrCrashed, false
	}
	if in.crashAt != 0 && in.ops >= in.crashAt {
		in.crashed = true
		return ErrCrashed, in.torn
	}
	if in.latchMask&op != 0 && (in.latchPath == "" || exists(in.latchPath)) {
		return in.latchErr, false
	}
	if in.failAt != 0 && in.failMask&op != 0 {
		in.failSeen++
		if in.failSeen == in.failAt {
			in.failAt = 0
			return in.failErr, in.torn
		}
	}
	return nil, false
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func injErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := in.step(OpMkdir); err != nil {
		return injErr("mkdir", path, err)
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadDirNames(dir string) ([]string, error) {
	if err, _ := in.step(OpReadDir); err != nil {
		return nil, injErr("readdir", dir, err)
	}
	return in.inner.ReadDirNames(dir)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	if err, _ := in.step(OpReadFile); err != nil {
		return nil, injErr("read", path, err)
	}
	return in.inner.ReadFile(path)
}

func (in *Injector) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	if err, _ := in.step(OpOpen); err != nil {
		return nil, injErr("open", path, err)
	}
	f, err := in.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, path: path}, nil
}

func (in *Injector) Remove(path string) error {
	if err, _ := in.step(OpRemove); err != nil {
		return injErr("remove", path, err)
	}
	return in.inner.Remove(path)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err, _ := in.step(OpRename); err != nil {
		return injErr("rename", oldpath, err)
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) SyncDir(dir string) error {
	if err, _ := in.step(OpSyncDir); err != nil {
		return injErr("syncdir", dir, err)
	}
	return in.inner.SyncDir(dir)
}

// injFile threads a handle's operations back through the injector.
type injFile struct {
	in   *Injector
	f    File
	path string
}

func (f *injFile) Write(p []byte) (int, error) {
	err, torn := f.in.step(OpWrite)
	if err != nil {
		n := 0
		if torn && len(p) > 1 {
			n, _ = f.f.Write(p[:len(p)/2])
		}
		return n, injErr("write", f.path, err)
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if err, _ := f.in.step(OpSync); err != nil {
		return injErr("sync", f.path, err)
	}
	return f.f.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if err, _ := f.in.step(OpTruncate); err != nil {
		return injErr("truncate", f.path, err)
	}
	return f.f.Truncate(size)
}

func (f *injFile) Seek(offset int64, whence int) (int64, error) {
	if err, _ := f.in.step(OpSeek); err != nil {
		return 0, injErr("seek", f.path, err)
	}
	return f.f.Seek(offset, whence)
}

func (f *injFile) Close() error {
	if err, _ := f.in.step(OpClose); err != nil {
		return injErr("close", f.path, err)
	}
	return f.f.Close()
}
