package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// sumScans walks a stats tree summing scan-node emissions — a quick
// sanity proxy that the trace actually covers the leaf layer.
func sumScans(st *obs.SpanStats) int64 {
	if strings.HasPrefix(st.Op, "scan(") || strings.Contains(st.Op, ": scan(") {
		return st.TuplesOut
	}
	var n int64
	for _, c := range st.Children {
		n += sumScans(c)
	}
	return n
}

func TestQueryTraceEnvelope(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "c - (a | b)", Trace: true})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("trace:true response has no trace tree")
	}
	if qr.Cached {
		t.Fatal("traced request reported a cache hit")
	}
	if got, want := qr.Trace.TuplesOut, int64(len(qr.Result.Tuples)); got != want {
		t.Fatalf("trace root tuplesOut = %d, want result cardinality %d", got, want)
	}
	if qr.Trace.Op != "−Tp" {
		t.Fatalf("trace root op = %q, want −Tp", qr.Trace.Op)
	}
	if n := sumScans(qr.Trace); n != 3 { // a, b, c hold one tuple each
		t.Fatalf("scan emissions = %d, want 3", n)
	}

	// A traced request skips the cache lookup but still stores: the same
	// untraced query must now hit.
	resp, body = do(t, "POST", ts.URL+"/query", QueryRequest{Query: "c - (a | b)"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr2 QueryResponse
	if err := json.Unmarshal(body, &qr2); err != nil {
		t.Fatal(err)
	}
	if !qr2.Cached {
		t.Fatal("untraced repeat after traced evaluation missed the cache")
	}
	if qr2.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}
}

// TestUntracedWireFormatUnchanged pins that tracing-off responses carry
// no trace artifacts anywhere in the wire format: no "trace" key in the
// /query envelope or the stream trailer.
func TestUntracedWireFormatUnchanged(t *testing.T) {
	_, ts := newTestServer(t)

	_, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "c - (a | b)"})
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("untraced /query body mentions trace: %s", body)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"query", "complexity", "inputs", "cached", "elapsedMicros", "result"} {
		if _, ok := keys[k]; !ok {
			t.Fatalf("envelope lost key %q: %s", k, body)
		}
	}
	if len(keys) != 6 {
		t.Fatalf("untraced envelope has %d keys, want 6: %s", len(keys), body)
	}

	resp, body := do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "c - (a | b)"})
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("untraced stream mentions trace: %s", body)
	}
}

func TestStreamTrailerTrace(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "c - (a | b)", Trace: true})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var tr StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatalf("trailer: %v (%s)", err, lines[len(lines)-1])
	}
	if !tr.Done || tr.Trace == nil {
		t.Fatalf("trailer = %+v, want done with trace", tr)
	}
	if tr.Trace.TuplesOut != int64(tr.Tuples) {
		t.Fatalf("trace root tuplesOut = %d, want streamed count %d", tr.Trace.TuplesOut, tr.Tuples)
	}
	// The result is shorter than a block: it was held, and sent sized.
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body; want it sent sized",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

func TestQueryExplain(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := do(t, "POST", ts.URL+"/query/explain", QueryRequest{Query: "c - (a | b)"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Trace == nil {
		t.Fatal("explain returned no trace")
	}
	if er.Query != "(c - (a | b))" {
		t.Fatalf("canonical query = %q", er.Query)
	}
	if er.Trace.TuplesOut != er.Tuples {
		t.Fatalf("trace root tuplesOut = %d, want drained count %d", er.Trace.TuplesOut, er.Tuples)
	}
	// No result payload of any shape.
	if bytes.Contains(body, []byte(`"result"`)) {
		t.Fatalf("explain body carries a result: %s", body)
	}
	// Explain bypasses the cache entirely: the same query must still
	// miss afterwards.
	_, body = do(t, "POST", ts.URL+"/query", QueryRequest{Query: "c - (a | b)"})
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("explain stored a result in the cache")
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate some traffic so histograms are non-empty.
	do(t, "POST", ts.URL+"/query", QueryRequest{Query: "c - (a | b)"})
	do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "a | b"})

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE tpset_queries_total counter",
		"# TYPE tpset_query_execute_seconds histogram",
		`tpset_query_execute_seconds_bucket{le="+Inf"}`,
		"tpset_query_execute_seconds_count",
		"# TYPE tpset_goroutines gauge",
		"tpset_cache_misses_total",
		"tpset_batch_pool_gets_total",
		"# TYPE tpset_marginal_text_slots_ready gauge",
		"# TYPE tpset_marginal_text_bytes gauge",
		"tpset_marginal_text_hits_total",
		"tpset_marginal_text_misses_total",
		"tpset_relation_admissions_total 3", // a, b, c
		"tpset_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, text)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	sc := bufio.NewScanner(strings.NewReader(text))
	last := int64(-1)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "tpset_query_execute_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts decreased: %q after %d", line, last)
		}
		last = v
	}

	// Default (no Accept) stays JSON for existing consumers.
	resp2, body := do(t, "GET", ts.URL+"/metrics", nil)
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default content type %q, want JSON", ct)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Phases.Execute.Count == 0 {
		t.Fatal("execute histogram empty after queries")
	}
	if m.Admissions != 3 || m.TuplesAdmitted != 3 {
		t.Fatalf("admissions = %d/%d tuples, want 3/3", m.Admissions, m.TuplesAdmitted)
	}
	if m.BytesStreamed == 0 || m.TuplesStreamed == 0 {
		t.Fatalf("stream counters empty: bytes=%d tuples=%d", m.BytesStreamed, m.TuplesStreamed)
	}
	// The /query body and the stream both carried marginals of a, b, c:
	// each was looked up, and the table is at least a chunk.
	if mt := m.MarginalTexts; mt.Hits+mt.Misses == 0 || mt.Bytes == 0 || mt.Bytes%32 != 0 || mt.Ready > mt.Bytes/32 {
		t.Fatalf("marginal-text table: %+v", mt)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := do(t, "GET", ts.URL+"/healthz", nil)
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"status", "relations", "uptimeSec", "goVersion", "buildVersion", "buildRevision"} {
		if _, ok := h[k]; !ok {
			t.Fatalf("healthz lacks %q: %s", k, body)
		}
	}
	if gv, _ := h["goVersion"].(string); !strings.HasPrefix(gv, "go") {
		t.Fatalf("goVersion = %v", h["goVersion"])
	}
}

// TestMetricsSnapshotUnderLoad hammers the query, admission and scrape
// paths concurrently — under -race this pins that /metrics snapshots
// are atomic instrument reads, never torn struct copies.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	s, ts := newTestServer(t)
	const loops = 30
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				switch w % 4 {
				case 0:
					do(t, "POST", ts.URL+"/query", QueryRequest{Query: "c - (a | b)", NoCache: true, Trace: i%2 == 0})
				case 1:
					do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "a | b"})
				case 2:
					r := relation.New(relation.NewSchema("hot", "Product"))
					r.AddBase(relation.NewFact("milk"), fmt.Sprintf("h%d", i), 1, 5, 0.5)
					if _, err := s.Load("hot", r); err != nil {
						t.Error(err)
					}
				case 3:
					do(t, "GET", ts.URL+"/metrics", nil)
					req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
					req.Header.Set("Accept", "text/plain")
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	_, body := do(t, "GET", ts.URL+"/metrics", nil)
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Queries < loops || m.Streams < loops {
		t.Fatalf("counters lost updates: queries=%d streams=%d, want >= %d", m.Queries, m.Streams, loops)
	}
	if m.TracedQueries == 0 {
		t.Fatal("traced counter never moved")
	}
}
