// Package faultfs abstracts the filesystem surface the durable segment
// tier runs on so faults can be injected deterministically. Production
// code uses OS (thin pass-throughs to the os package); tests compose
// MemFS — an in-memory filesystem that models which bytes survive a
// power cut — with Injector, which fails a chosen operation (ENOSPC,
// fsync error, torn write) or cuts power at an exact operation
// boundary. Injector.FailWhileExists injects disk-full into a live
// process whenever a sentinel file exists, for end-to-end chaos smokes.
package faultfs

import (
	"io"
	"io/fs"
)

// FS is the filesystem surface the segment store performs durability
// through. It is deliberately small: exactly the calls store.go,
// wal.go, and the segment open path need, no more.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDirNames lists the entry names of dir in sorted order.
	ReadDirNames(dir string) ([]string, error)
	// ReadFile reads the whole file; a missing file satisfies
	// os.IsNotExist.
	ReadFile(path string) ([]byte, error)
	// OpenFile opens path with os.O_* flags for writing.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// Remove deletes path; a missing file satisfies os.IsNotExist.
	Remove(path string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs a directory, making creates, renames, and removes
	// inside it durable.
	SyncDir(dir string) error
}

// File is the writable-handle surface of FS.OpenFile. os.File
// implements it directly.
type File interface {
	io.Writer
	// Sync makes the file's current content durable.
	Sync() error
	// Truncate resizes the file without moving the write offset.
	Truncate(size int64) error
	// Seek repositions the write offset.
	Seek(offset int64, whence int) (int64, error)
	// Close releases the handle.
	Close() error
}
