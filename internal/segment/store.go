package segment

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/relation"
)

// walFileName is the per-catalog write-ahead log inside the data dir.
const walFileName = "wal.log"

// defaultApplyThreshold is how many WAL bytes may accumulate before a
// Put applies pending segment rewrites synchronously. Below it, Put
// returns right after the WAL fsync — the acknowledgement point — and
// the rewrite cost is paid in the background of a later call, Flush,
// or replay.
const defaultApplyThreshold = 4 << 20

// ErrDegraded marks a mutation rejected because the store has latched
// degraded after a durability failure, or has been closed. Reads of the
// already-restored catalog remain valid; only new acknowledgements are
// refused until TryRecover repairs the write path.
var ErrDegraded = errors.New("segment: store is degraded")

// errClosed is the refusal of every write after Close. It wraps
// ErrDegraded, so a server still answering during a timed-out shutdown
// reports 503, and no TryRecover re-arms it.
var errClosed = fmt.Errorf("%w: store is closed", ErrDegraded)

// WALError wraps a WAL append/fsync failure. A mutation returning it
// was NOT acknowledged — nothing of it is durable — and the store has
// latched degraded: a torn half-record may now sit in the log, and any
// further append behind it would be unreachable at replay, so all
// mutations are refused until TryRecover truncates the log cleanly.
type WALError struct {
	Err error
}

func (e *WALError) Error() string { return fmt.Sprintf("segment: wal write failed: %v", e.Err) }
func (e *WALError) Unwrap() error { return e.Err }

// Store is the durable tier of one catalog: a directory of one segment
// file per relation plus the WAL. All methods are safe for concurrent
// use; relations handed to Put must be the catalog's immutable admitted
// pointers (the store reads them again at apply time). Restored
// relations own their memory: they stay valid after Close.
type Store struct {
	dir  string
	fsys faultfs.FS

	mu             sync.Mutex
	wal            faultfs.File // nil once closed
	walSize        int64
	seq            uint64
	pending        map[string]pendingOp
	files          []*File // decoded segments, held until Restore
	segments       int
	restored       bool
	applyThreshold int64
	degraded       error // non-nil = degraded, holding the root cause
	walErrors      uint64
}

// pendingOp is one not-yet-applied catalog mutation. payload carries
// the WAL-recorded segment bytes for the triggering Put; rebound
// rewrites (dictionary-rebuild fallout) have no WAL record — their
// old segments remain durable and a crash merely leaves mixed
// dictionary generations, which Restore heals — so they are encoded
// lazily at apply time.
type pendingOp struct {
	drop    bool
	rel     *relation.Relation
	payload []byte
}

// segFileName maps a relation name to its segment file name; escaping
// keeps arbitrary relation names (path separators included) inside the
// data dir.
func segFileName(name string) string { return url.PathEscape(name) + ".seg" }

// OpenFile reads and decodes one segment file.
func OpenFile(path string) (*File, error) {
	return OpenFileFS(faultfs.OS{}, path)
}

// OpenFileFS is OpenFile against an explicit filesystem. The decoded
// File keeps nothing of the bytes read, so they are garbage on return.
func OpenFileFS(fsys faultfs.FS, path string) (*File, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, prefixed(err)
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%v (in %s)", err, path)
	}
	return f, nil
}

// OpenStore opens (creating if needed) the data dir on the real
// filesystem. See OpenStoreFS.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreFS(dir, faultfs.OS{})
}

// OpenStoreFS opens (creating if needed) the data dir: leftover *.tmp
// files from torn renames are removed, the WAL's valid prefix is
// replayed into segment files and the WAL truncated, and every segment
// is read and decoded. A segment that fails validation —
// torn, truncated, bit-flipped — fails the open loudly rather than
// serving partial data.
func OpenStoreFS(dir string, fsys faultfs.FS) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: create data dir: %v", err)
	}
	names, err := fsys.ReadDirNames(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: read data dir: %v", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("segment: remove leftover %s: %v", name, err)
			}
		}
	}

	walPath := filepath.Join(dir, walFileName)
	walData, err := fsys.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("segment: read wal: %v", err)
	}
	walExisted := err == nil
	recs := replayWAL(walData)
	for _, rec := range recs {
		switch rec.op {
		case opPut:
			// The payload passed its record CRC; decoding re-proves it is
			// a whole valid segment before it replaces anything.
			if _, err := Decode(rec.payload); err != nil {
				return nil, fmt.Errorf("segment: wal record %d for %q: %v", rec.seq, rec.name, err)
			}
			if err := writeSegmentFile(fsys, dir, rec.name, rec.payload); err != nil {
				return nil, err
			}
		case opDrop:
			if err := fsys.Remove(filepath.Join(dir, segFileName(rec.name))); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("segment: apply wal drop of %q: %v", rec.name, err)
			}
		case opNoop:
			// Recovery probe records prove the write path; they carry no
			// catalog mutation.
		}
	}
	if len(recs) > 0 {
		if err := syncDir(fsys, dir); err != nil {
			return nil, err
		}
	}
	wal, err := fsys.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: open wal: %v", err)
	}
	// Syncing the truncated WAL matters only when the truncation changed
	// durable state: replayed records were folded into segment files (all
	// fsynced above), or the file is brand new and its directory entry
	// must outlive a crash. A reopen after a clean shutdown — WAL already
	// present and empty — skips the fsync, which is a measurable slice of
	// restart cold-open.
	if !walExisted || len(walData) > 0 {
		if err := wal.Sync(); err != nil {
			wal.Close()
			return nil, fmt.Errorf("segment: sync wal: %v", err)
		}
		if !walExisted {
			if err := syncDir(fsys, dir); err != nil {
				wal.Close()
				return nil, err
			}
		}
	}

	s := &Store{
		dir:            dir,
		fsys:           fsys,
		wal:            wal,
		pending:        make(map[string]pendingOp),
		applyThreshold: defaultApplyThreshold,
	}
	names, err = fsys.ReadDirNames(dir)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("segment: read data dir: %v", err)
	}
	var segNames []string
	for _, name := range names {
		if strings.HasSuffix(name, ".seg") {
			segNames = append(segNames, name)
		}
	}
	// Segments read and decode independently, so open them concurrently:
	// restart latency is bounded by the largest segment, not the catalog
	// size. ReadDirNames order keeps s.files deterministic.
	files := make([]*File, len(segNames))
	errs := make([]error, len(segNames))
	var wg sync.WaitGroup
	for i, name := range segNames {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			f, err := OpenFileFS(fsys, filepath.Join(dir, name))
			if err == nil && segFileName(f.Name) != name {
				f, err = nil, fmt.Errorf("segment: %s embeds relation name %q, which belongs in %s", name, f.Name, segFileName(f.Name))
			}
			files[i], errs[i] = f, err
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	s.files, s.segments = files, len(files)
	return s, nil
}

// Restore materializes every opened segment as a catalog-ready
// relation, all bound to one shared dictionary built over every
// segment's keys. Each relation's fid column is its decoded section,
// translated to that dictionary's ids (File.Relation): the identity
// when every segment carries the same dictionary generation — the
// invariant every clean shutdown and every complete apply maintains —
// and a heal of the older-generation segments after a crash that
// interleaved a dictionary rebuild. Restore is called once per opened
// store: the relations it returns are all that is kept of the decoded
// segments, and a second call reports an error.
func (s *Store) Restore() (map[string]*relation.Relation, *keys.Dict, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.restored {
		return nil, nil, fmt.Errorf("segment: store already restored")
	}
	s.restored = true
	files := s.files
	s.files = nil
	if len(files) == 0 {
		return map[string]*relation.Relation{}, nil, nil
	}
	var ks []string
	for _, f := range files {
		ks = append(ks, f.Keys...)
	}
	d := keys.BuildDict(ks)
	rels := make(map[string]*relation.Relation, len(files))
	for _, f := range files {
		rel, err := f.Relation(d)
		if err != nil {
			return nil, nil, err
		}
		rels[f.Name] = rel
		f.Ts, f.Te, f.Prob, f.Lam = nil, nil, nil, nil
	}
	return rels, d, nil
}

// SegmentCount returns the number of segments the store opened.
func (s *Store) SegmentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segments
}

// Degraded returns the failure that latched the store degraded, or nil
// when the write path is healthy.
func (s *Store) Degraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// WALErrorCount returns how many durability failures (WAL append/fsync
// or apply) the store has observed.
func (s *Store) WALErrorCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walErrors
}

// degradeLocked latches the store read-only, recording the root cause.
func (s *Store) degradeLocked(cause error) {
	s.walErrors++
	if s.degraded == nil {
		s.degraded = cause
	}
}

// TryRecover attempts to re-arm the write path after a degradation:
// pending mutations are re-applied to segment files (truncating the
// WAL back to a clean empty state — a retry of the apply that the WAL
// has made safe to repeat), and a no-op probe record is appended and
// fsynced to prove appends work again. On success the store is healthy;
// on failure it stays degraded and returns the fresh cause. Safe to
// call periodically from a background probe.
func (s *Store) TryRecover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errClosed
	}
	if s.degraded == nil {
		return nil
	}
	// applyLocked flushes pending ops; resetWALLocked then truncates the
	// log unconditionally — even when nothing was pending, a torn
	// half-record may sit in the file, and appending the probe after it
	// would strand every later record beyond an invalid prefix.
	if err := s.applyLocked(); err != nil {
		s.walErrors++
		s.degraded = err
		return err
	}
	if err := s.resetWALLocked(); err != nil {
		s.walErrors++
		s.degraded = err
		return err
	}
	if err := s.appendLocked(opNoop, "", nil); err != nil {
		s.degraded = err
		return err
	}
	s.degraded = nil
	return nil
}

// Put makes a catalog put durable: the encoded segment is appended to
// the WAL and fsynced — once Put returns nil, the relation survives any
// crash — and the segment files are rewritten at the next apply.
// rebound carries the sibling relations a dictionary rebuild rebound
// at admission (nil when the dictionary was reused); scheduling their
// rewrite keeps all on-disk segments on one dictionary generation, so
// the next restart aliases every relation.
//
// A degraded or closed store refuses with ErrDegraded before it encodes
// anything.
// A *WALError return means the mutation was not acknowledged and the
// store is now degraded. An apply failure after a successful append
// also degrades the store but does NOT fail the Put: the mutation is
// durable in the WAL and will be re-applied by TryRecover or replayed
// at the next open.
func (s *Store) Put(name string, rel *relation.Relation, rebound map[string]*relation.Relation) error {
	if rel.Schema.Name != name {
		return fmt.Errorf("segment: put of %q with schema name %q", name, rel.Schema.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	payload, err := Encode(rel)
	if err != nil {
		return err
	}
	if err := s.appendLocked(opPut, name, payload); err != nil {
		return err
	}
	s.pending[name] = pendingOp{rel: rel, payload: payload}
	for other, r := range rebound {
		if other == name {
			continue
		}
		s.pending[other] = pendingOp{rel: r}
	}
	if err := s.maybeApplyLocked(); err != nil {
		s.degradeLocked(err)
	}
	return nil
}

// Drop makes a catalog drop durable; the segment file is removed at
// the next apply. Error semantics match Put.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if err := s.appendLocked(opDrop, name, nil); err != nil {
		return err
	}
	s.pending[name] = pendingOp{drop: true}
	if err := s.maybeApplyLocked(); err != nil {
		s.degradeLocked(err)
	}
	return nil
}

// Flush applies every pending mutation to segment files and truncates
// the WAL — the graceful-shutdown path, after which a restart opens
// nothing but clean, single-generation segments.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errClosed
	}
	return s.applyLocked()
}

// Close flushes and closes the WAL. Afterwards the store reports itself
// degraded and refuses every write with an error wrapping ErrDegraded;
// closing again is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.applyLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	if s.degraded == nil {
		s.degraded = errClosed
	}
	return err
}

// writableLocked refuses a mutation on a closed or degraded store.
func (s *Store) writableLocked() error {
	if s.wal == nil {
		return errClosed
	}
	if s.degraded != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, s.degraded)
	}
	return nil
}

// appendLocked writes and fsyncs one WAL record — the durability
// point. The sequence number only advances on success: a failed write
// may have left a torn half-record, and advancing past it would make
// any later record unreachable at replay (the valid prefix ends at the
// tear), silently losing an acknowledged mutation. Failure therefore
// wraps in *WALError and latches the store degraded.
func (s *Store) appendLocked(op byte, name string, payload []byte) error {
	if len(name) > 0xFFFF {
		return fmt.Errorf("segment: relation name longer than 65535 bytes")
	}
	rec := encodeRecord(s.seq+1, op, name, payload)
	if _, err := s.wal.Write(rec); err != nil {
		werr := &WALError{Err: err}
		s.degradeLocked(werr)
		return werr
	}
	if err := s.wal.Sync(); err != nil {
		werr := &WALError{Err: err}
		s.degradeLocked(werr)
		return werr
	}
	s.seq++
	s.walSize += int64(len(rec))
	return nil
}

func (s *Store) maybeApplyLocked() error {
	if s.walSize < s.applyThreshold {
		return nil
	}
	return s.applyLocked()
}

// applyLocked materializes every pending op as a segment file
// (write tmp → fsync → rename-into-place), fsyncs the directory, and
// truncates the WAL. On error the WAL is left intact, so nothing
// acknowledged is lost — the apply simply retries later.
func (s *Store) applyLocked() error {
	if len(s.pending) == 0 && s.walSize == 0 {
		return nil
	}
	for name, op := range s.pending {
		if op.drop {
			if err := s.fsys.Remove(filepath.Join(s.dir, segFileName(name))); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("segment: drop %q: %v", name, err)
			}
			continue
		}
		payload := op.payload
		if payload == nil {
			var err error
			if payload, err = Encode(op.rel); err != nil {
				return err
			}
		}
		if err := writeSegmentFile(s.fsys, s.dir, name, payload); err != nil {
			return err
		}
	}
	if err := syncDir(s.fsys, s.dir); err != nil {
		return err
	}
	if err := s.resetWALLocked(); err != nil {
		return err
	}
	s.pending = make(map[string]pendingOp)
	return nil
}

// resetWALLocked truncates the WAL to a clean, fsynced empty file and
// rewinds the sequence counter. Safe only once nothing in the log is
// still needed: every record has been folded into segment files (or was
// garbage past the valid prefix).
func (s *Store) resetWALLocked() error {
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("segment: truncate wal: %v", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("segment: rewind wal: %v", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("segment: sync wal: %v", err)
	}
	s.walSize, s.seq = 0, 0
	return nil
}

// writeSegmentFile writes payload as dir/<name>.seg atomically: a
// fsynced temp file renamed into place, so any crash leaves either the
// old segment or the new one, never a torn mix.
func writeSegmentFile(fsys faultfs.FS, dir, name string, payload []byte) error {
	seg := filepath.Join(dir, segFileName(name))
	tmp := seg + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: write %q: %v", name, err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("segment: write %q: %v", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("segment: sync %q: %v", name, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("segment: close %q: %v", name, err)
	}
	if err := fsys.Rename(tmp, seg); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("segment: rename %q into place: %v", name, err)
	}
	return nil
}

// syncDir fsyncs the directory so renames and removals are themselves
// durable.
func syncDir(fsys faultfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("segment: sync data dir: %v", err)
	}
	return nil
}

// prefixed wraps an error with the package prefix unless it already
// carries it.
func prefixed(err error) error {
	if strings.HasPrefix(err.Error(), "segment:") {
		return err
	}
	return fmt.Errorf("segment: %v", err)
}
