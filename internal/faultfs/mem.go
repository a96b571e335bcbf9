package faultfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// MemFS is an in-memory FS that models what a power cut preserves.
// Durability follows the POSIX contract the segment store is written
// against:
//
//   - file *content* becomes durable at File.Sync — a crash rolls a
//     file back to the bytes covered by its last fsync;
//   - the *namespace* (creates, renames, removes) becomes durable at
//     SyncDir — a crash rolls the directory listing back to its state
//     at the last directory fsync, while each surviving name still
//     resolves to its inode's last-synced content.
//
// CrashView renders the post-crash disk under either the pessimistic
// durable-only model or the optimistic everything-flushed model; a
// correct store must recover from both (and every mix in between, but
// the two extremes bound the lattice the crash matrix explores).
type MemFS struct {
	mu      sync.Mutex
	dirs    map[string]bool
	files   map[string]*memInode // current namespace
	durable map[string]*memInode // namespace as of the last SyncDir
}

// memInode carries a file's current bytes and the bytes its last Sync
// made durable. Renames move the name, not the inode, so synced content
// survives a rename exactly as it does on a real filesystem.
type memInode struct {
	data   []byte
	synced []byte
}

// NewMem returns an empty MemFS.
func NewMem() *MemFS {
	return &MemFS{
		dirs:    make(map[string]bool),
		files:   make(map[string]*memInode),
		durable: make(map[string]*memInode),
	}
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *MemFS) MkdirAll(path string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[filepath.Clean(path)] = true
	return nil
}

func (m *MemFS) ReadDirNames(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("open", dir)
	}
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), ino.data...), nil
}

func (m *MemFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, ok := m.files[path]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", path)
		}
		ino = &memInode{}
		m.files[path] = ino
	} else if flag&os.O_TRUNC != 0 {
		ino.data = nil
	}
	return &memHandle{fs: m, ino: ino, path: path}, nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	ino, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = ino
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return notExist("open", dir)
	}
	for path := range m.durable {
		if filepath.Dir(path) == dir {
			delete(m.durable, path)
		}
	}
	for path, ino := range m.files {
		if filepath.Dir(path) == dir {
			m.durable[path] = ino
		}
	}
	return nil
}

// CrashView renders the filesystem an abrupt power cut would leave
// behind, as a fresh MemFS ready to be reopened. With durable=true only
// fsync-covered state survives: the namespace as of the last SyncDir,
// each name holding its inode's last-synced bytes. With durable=false
// the kernel happened to flush everything — the current namespace with
// current bytes. The original MemFS is not modified.
func (m *MemFS) CrashView(durable bool) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := NewMem()
	for d := range m.dirs {
		v.dirs[d] = true
	}
	src := m.files
	if durable {
		src = m.durable
	}
	for path, ino := range src {
		content := ino.data
		if durable {
			content = ino.synced
		}
		n := &memInode{
			data:   append([]byte(nil), content...),
			synced: append([]byte(nil), content...),
		}
		v.files[path] = n
		v.durable[path] = n
	}
	return v
}

// memHandle is a write handle onto one inode.
type memHandle struct {
	fs     *MemFS
	ino    *memInode
	path   string
	off    int64
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, &fs.PathError{Op: "write", Path: h.path, Err: fs.ErrClosed}
	}
	end := h.off + int64(len(p))
	if int64(len(h.ino.data)) < end {
		grown := make([]byte, end)
		copy(grown, h.ino.data)
		h.ino.data = grown
	}
	copy(h.ino.data[h.off:end], p)
	h.off = end
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return &fs.PathError{Op: "sync", Path: h.path, Err: fs.ErrClosed}
	}
	h.ino.synced = append([]byte(nil), h.ino.data...)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return &fs.PathError{Op: "truncate", Path: h.path, Err: fs.ErrClosed}
	}
	if int64(len(h.ino.data)) > size {
		h.ino.data = append([]byte(nil), h.ino.data[:size]...)
	} else if int64(len(h.ino.data)) < size {
		grown := make([]byte, size)
		copy(grown, h.ino.data)
		h.ino.data = grown
	}
	return nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, &fs.PathError{Op: "seek", Path: h.path, Err: fs.ErrClosed}
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.ino.data)) + offset
	default:
		return 0, fmt.Errorf("seek %s: invalid whence %d", h.path, whence)
	}
	return h.off, nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
