package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
)

// syscw reads the process's count of write system calls from
// /proc/self/io.
func syscw(t *testing.T) int {
	t.Helper()
	f, err := os.Open("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O counters: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "syscw: "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("/proc/self/io has no syscw line")
	return 0
}

// TestStreamSocketWrites counts write(2) calls on a real socket — the
// client's and the server's together, both in this process — around
// many streams over one keep-alive connection. A stream that ends before
// its first block goes out sized, in one ResponseWriter write: the
// client's request is one write(2) and the response at most two (the
// status line and the body's first bytes fill net/http's 4 KB
// connection buffer, the rest is written directly). A longer stream
// pays two per written block — the previous chunk's CRLF, the chunk
// header and the block's first bytes, then the rest of the block; the
// handler flushes nothing, so no write(2) carries a CRLF alone — and a
// constant: the request, the last rows with the trailer (two), the end
// of the body, and one of slack for the runtime's own wakeups of its
// network poller, which count as writes. The 2,502-row stream (two
// written blocks) reads 8.00–8.08 a stream, against its ceiling of 9; it
// read 10.0 when each block was flushed.
func TestStreamSocketWrites(t *testing.T) {
	_, ts := newGovTestServer(t, Config{Workers: 1})
	client := ts.Client()
	stream := func(q string) (tuples int) {
		blob, _ := json.Marshal(QueryRequest{Query: q})
		resp, err := client.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", q, resp.StatusCode, err)
		}
		n, trailer := parseStream(t, body)
		if !trailer.Done {
			t.Fatalf("%s: trailer %+v", q, trailer)
		}
		return n
	}
	const streams = 50
	for _, c := range []struct {
		query  string
		sized  bool
		writes func(tuples int) int // per stream, at most
	}{
		{"s", true, func(int) int { return 4 }},
		{"r | s", false, func(tuples int) int { return 2*(tuples/core.BatchSize) + 5 }},
	} {
		tuples := stream(c.query) // warm: the connection is open and every buffer grown
		if short := tuples < core.BatchSize; short != c.sized {
			t.Fatalf("%s: %d tuples; the case needs a stream %s a block", c.query, tuples, map[bool]string{true: "shorter than", false: "of more than"}[c.sized])
		}
		before := syscw(t)
		for i := 0; i < streams; i++ {
			stream(c.query)
		}
		writes := syscw(t) - before
		t.Logf("%s (%d tuples): %.2f write(2) calls a stream", c.query, tuples, float64(writes)/streams)
		if want := c.writes(tuples); writes > streams*want {
			t.Fatalf("%s (%d tuples): %d write(2) calls over %d streams, %.1f a stream; want at most %d",
				c.query, tuples, writes, streams, float64(writes)/streams, want)
		}
	}
}
