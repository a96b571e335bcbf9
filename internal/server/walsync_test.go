package server

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/segment"
)

// syncHookFS runs hook at every Sync of the WAL file, before the sync
// itself: the moment a mutation is written but not yet durable. A
// non-nil error from hook fails that Sync, as a dying disk would.
type syncHookFS struct {
	faultfs.FS
	hook func() error
}

func (f *syncHookFS) OpenFile(path string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != "wal.log" {
		return file, err
	}
	return &syncHookFile{File: file, fs: f}, nil
}

type syncHookFile struct {
	faultfs.File
	fs *syncHookFS
}

func (f *syncHookFile) Sync() error {
	if f.fs.hook != nil {
		if err := f.fs.hook(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// walSyncServer is a durable server over an in-memory disk holding
// relation a; the returned filesystem's hook runs inside every later WAL
// sync.
func walSyncServer(t *testing.T) (*Server, *syncHookFS) {
	t.Helper()
	fsys := &syncHookFS{FS: faultfs.NewMem()}
	st, err := segment.OpenStoreFS("/data", fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := New(Config{Workers: 1})
	if err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, srv, "a", rel1("a", "a1"))
	return srv, fsys
}

// readState is what one query of a single relation observed: the status
// and, on 200, the version it read and the rows.
type readState struct {
	status  int
	version uint64
	rows    string
}

func readRelation(t *testing.T, srv *Server, name string) readState {
	t.Helper()
	res, err := srv.RunQueryCtx(context.Background(), QueryRequest{Query: name})
	var he *httpError
	switch {
	case errors.As(err, &he):
		return readState{status: he.status}
	case err != nil:
		t.Fatalf("query %s: %v", name, err)
	}
	return readState{status: http.StatusOK, version: res.Inputs[0].Version, rows: resultRelation(t, res).String()}
}

// mutate runs one PUT or DELETE through the handler while hook answers
// the WAL sync, and returns the response with what a query of name read
// inside that sync.
func mutate(t *testing.T, srv *Server, fsys *syncHookFS, fail bool, method, name, body string) (*httptest.ResponseRecorder, readState) {
	t.Helper()
	var during readState
	fsys.hook = func() error {
		during = readRelation(t, srv, name)
		if fail {
			return faultfs.ErrNoSpace
		}
		return nil
	}
	defer func() { fsys.hook = nil }()
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(method, "/relations/"+name, strings.NewReader(body)))
	return w, during
}

// TestWALSyncPutVisibleOnlyWhenDurable queries the relation a PUT names
// from inside the PUT's WAL sync — the record written, not yet durable —
// for a new name and for a replacement, with the sync failing and
// succeeding. Inside the sync the query reads the catalog as it was
// before the PUT; a refused PUT is never visible, and an acknowledged one
// is visible from its 2xx on.
func TestWALSyncPutVisibleOnlyWhenDurable(t *testing.T) {
	const body = `{"attrs":["Product"],"tuples":[{"fact":["tea"],"lineage":"w1","ts":1,"te":5,"p":0.5}]}`
	for _, tc := range []struct {
		name, rel string
		fail      bool
	}{
		{"new/fails", "x", true},
		{"new/succeeds", "x", false},
		{"replace/fails", "a", true},
		{"replace/succeeds", "a", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, fsys := walSyncServer(t)
			before := readRelation(t, srv, tc.rel)
			w, during := mutate(t, srv, fsys, tc.fail, http.MethodPut, tc.rel, body)
			if during != before {
				t.Errorf("query inside the WAL sync read %+v, want the state before the PUT %+v", during, before)
			}
			after := readRelation(t, srv, tc.rel)
			if tc.fail {
				if w.Code != http.StatusServiceUnavailable {
					t.Fatalf("PUT with a failing WAL sync: status %d, body %s", w.Code, w.Body)
				}
				if after != before {
					t.Errorf("after the refused PUT the query read %+v, want %+v", after, before)
				}
				return
			}
			var ack struct{ Version uint64 }
			if w.Code/100 != 2 || json.Unmarshal(w.Body.Bytes(), &ack) != nil {
				t.Fatalf("PUT: status %d, body %s", w.Code, w.Body)
			}
			if after.status != http.StatusOK || after.version != ack.Version || !strings.Contains(after.rows, "tea") {
				t.Errorf("after the acknowledged PUT (version %d) the query read %+v", ack.Version, after)
			}
		})
	}
}

// TestWALSyncDeleteVisibleOnlyWhenDurable is the DELETE half: inside the
// WAL sync the relation is still served; after a refused DELETE it still
// is, and after a 200 it is gone.
func TestWALSyncDeleteVisibleOnlyWhenDurable(t *testing.T) {
	for _, fail := range []bool{true, false} {
		name := map[bool]string{true: "fails", false: "succeeds"}[fail]
		t.Run(name, func(t *testing.T) {
			srv, fsys := walSyncServer(t)
			before := readRelation(t, srv, "a")
			w, during := mutate(t, srv, fsys, fail, http.MethodDelete, "a", "")
			if during != before {
				t.Errorf("query inside the WAL sync read %+v, want the state before the DELETE %+v", during, before)
			}
			after := readRelation(t, srv, "a")
			switch {
			case fail && (w.Code != http.StatusServiceUnavailable || after != before):
				t.Errorf("DELETE with a failing WAL sync: status %d, then the query read %+v, want %+v", w.Code, after, before)
			case !fail && (w.Code != http.StatusOK || after.status != http.StatusNotFound):
				t.Errorf("DELETE: status %d, then the query read %+v, want 404", w.Code, after)
			}
		})
	}
}
