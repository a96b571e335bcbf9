package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/segment"
)

// The full degraded-mode arc over an injected disk: the disk dies
// (every mutation fails ENOSPC), the first write 503s and is never
// installed, reads stay bit-identical throughout the outage, health and
// metrics report the state, further mutations are refused without
// touching the dead disk — and when the disk returns, the background
// probe re-arms writes with no restart.
func TestDegradedReadOnlyEndToEnd(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	st, err := segment.OpenStoreFS("/data", inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := New(Config{Workers: 2})
	srv.AttachStore(st)

	a := relation.New(relation.NewSchema("a", "Product"))
	a.AddBase(relation.NewFact("milk"), "a1", 2, 10, 0.3)
	if _, err := srv.Load("a", a); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, before := do(t, "GET", ts.URL+"/relations/a", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("baseline read: %d", resp.StatusCode)
	}

	// The disk dies.
	inj.Fail(faultfs.OpMutate, faultfs.ErrNoSpace)

	put := RelationJSON{Name: "x", Attrs: []string{"Product"}, Tuples: []TupleJSON{
		{Fact: []string{"tea"}, Lineage: "x1", Ts: 1, Te: 5, Prob: 0.5},
	}}
	resp, body := do(t, "PUT", ts.URL+"/relations/x", put)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT on dead disk: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("PUT on dead disk: body %s", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}

	// The failed PUT was never installed: the relation does not exist, in
	// memory or on disk.
	if resp, _ := do(t, "GET", ts.URL+"/relations/x", nil); resp.StatusCode != 404 {
		t.Fatalf("refused relation visible: %d", resp.StatusCode)
	}

	// Health and metrics report the outage; reads and queries do not
	// notice it.
	if _, body := do(t, "GET", ts.URL+"/healthz", nil); !bytes.Contains(body, []byte(`"status":"degraded"`)) ||
		!bytes.Contains(body, []byte("degradedReason")) {
		t.Fatalf("healthz while degraded: %s", body)
	}
	if _, body := do(t, "GET", ts.URL+"/metrics", nil); !bytes.Contains(body, []byte(`"degraded":true`)) ||
		!bytes.Contains(body, []byte(`"walWriteErrors":`)) {
		t.Fatalf("metrics while degraded: %s", body)
	}
	if m := srv.snapshotMetrics(); m.WALWriteErrors == 0 || !m.Degraded {
		t.Fatalf("metrics snapshot while degraded: %+v", m)
	}
	resp, after := do(t, "GET", ts.URL+"/relations/a", nil)
	if resp.StatusCode != 200 || !bytes.Equal(before, after) {
		t.Fatalf("read changed during outage: status %d", resp.StatusCode)
	}
	if resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "a"}); resp.StatusCode != 200 {
		t.Fatalf("query while degraded: status %d, body %s", resp.StatusCode, body)
	}

	// A second mutation is refused by the latched store — without
	// issuing a single operation to the dead disk — and never installed.
	ops := inj.OpCount()
	resp, body = do(t, "DELETE", ts.URL+"/relations/a", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE while degraded: status %d, body %s", resp.StatusCode, body)
	}
	if got := inj.OpCount(); got != ops {
		t.Fatalf("degraded DELETE issued %d disk ops", got-ops)
	}
	if resp, _ := do(t, "GET", ts.URL+"/relations/a", nil); resp.StatusCode != 200 {
		t.Fatal("refused DELETE removed the relation from the catalog")
	}

	// The disk comes back; the probe re-arms writes within a few ticks.
	// (Started here, not at boot, so the op-count assertions above are
	// not perturbed by the probe's own failed recovery attempts.)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv.StartRecoveryProbe(ctx, 10*time.Millisecond)
	inj.Clear()
	waitFor(t, "probe recovery", func() bool {
		_, body := do(t, "GET", ts.URL+"/healthz", nil)
		return bytes.Contains(body, []byte(`"status":"ok"`))
	})
	resp, body = do(t, "PUT", ts.URL+"/relations/x", put)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT after recovery: status %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, "GET", ts.URL+"/relations/x", nil); resp.StatusCode != 200 {
		t.Fatalf("relation missing after recovered PUT: %d", resp.StatusCode)
	}
}

// A request that outlives a timed-out shutdown meets a closed store:
// writes answer 503 instead of dereferencing the closed WAL, /healthz
// reports the store degraded, the recovery probe does not re-arm it, and
// reads and queries over the catalog keep serving.
func TestClosedStoreAnswers503(t *testing.T) {
	st, err := segment.OpenStoreFS("/data", faultfs.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2})
	srv.AttachStore(st)
	a := relation.New(relation.NewSchema("a", "Product"))
	a.AddBase(relation.NewFact("milk"), "a1", 2, 10, 0.3)
	if _, err := srv.Load("a", a); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv.StartRecoveryProbe(ctx, time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // probe ticks against the closed store
	put := RelationJSON{Name: "x", Attrs: []string{"Product"}, Tuples: []TupleJSON{
		{Fact: []string{"tea"}, Lineage: "x1", Ts: 1, Te: 5, Prob: 0.5},
	}}
	if resp, body := do(t, "PUT", ts.URL+"/relations/x", put); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT after Close: status %d, body %s", resp.StatusCode, body)
	}
	if resp, body := do(t, "DELETE", ts.URL+"/relations/a", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE after Close: status %d, body %s", resp.StatusCode, body)
	}
	if _, body := do(t, "GET", ts.URL+"/healthz", nil); !bytes.Contains(body, []byte(`"status":"degraded"`)) {
		t.Fatalf("healthz after Close: %s", body)
	}
	if resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "a"}); resp.StatusCode != 200 || !bytes.Contains(body, []byte("milk")) {
		t.Fatalf("query after Close: status %d, body %s", resp.StatusCode, body)
	}
}
