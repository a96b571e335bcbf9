package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is one closed-loop HTTP caller: it sends its next request only
// after the previous response has been read to the end. Responses are
// read into a fixed buffer and measured by counting bytes — no JSON is
// parsed in a timed loop, so on two CPUs the numbers stay tpserve's,
// not the driver's.
type client struct {
	hc   *http.Client
	base string
	buf  []byte // fixed read buffer of the stream path
	body []byte // reused whole-body buffer of the /query path
}

const clientBuf = 256 << 10

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			DisableCompression: true,
			ReadBufferSize:     clientBuf,
		}},
		base: base,
		buf:  make([]byte, clientBuf),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// opResult is what one operation cost and returned.
type opResult struct {
	kind   int           // position in the workload's query cycle
	total  time.Duration // send → last byte
	ttft   time.Duration // send → first result tuple received
	tuples int           // result tuples
	bytes  int64         // payload bytes (the stream's trailer line excluded)
}

var (
	newline      = []byte{'\n'}
	trailerStart = []byte(`{"done":true,"tuples":`)
	tupleMark    = []byte(`"ts":`) // once per TupleJSON; generated names hold no quotes
)

func queryBody(q string) []byte { return []byte(fmt.Sprintf(`{"query":%q}`, q)) }

func (c *client) post(path string, body []byte) (*http.Response, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// stream runs one POST /query/stream. NDJSON line 1 is the meta line,
// so the first result tuple has arrived when the second newline has;
// the stream is complete only if its last line is a done:true trailer
// whose tuple count matches the lines received.
func (c *client) stream(reqBody []byte) (opResult, error) {
	var res opResult
	start := time.Now()
	resp, err := c.post("/query/stream", reqBody)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	lines := 0
	var tail [512]byte // the stream's last bytes: the trailer line is ~60
	tailLen := 0
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			chunk := c.buf[:n]
			lines += bytes.Count(chunk, newline)
			if res.ttft == 0 && lines >= 2 {
				res.ttft = time.Since(start)
			}
			res.bytes += int64(n)
			if n >= len(tail) {
				tailLen = copy(tail[:], chunk[n-len(tail):])
			} else {
				keep := tailLen
				if keep+n > len(tail) {
					keep = len(tail) - n
				}
				copy(tail[:], tail[tailLen-keep:tailLen])
				tailLen = keep + copy(tail[keep:], chunk)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.total = time.Since(start)
	last := bytes.TrimSuffix(tail[:tailLen], newline)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	if !bytes.HasPrefix(last, trailerStart) {
		return res, fmt.Errorf("stream did not end with a done:true trailer (last line %q)", last)
	}
	for _, ch := range last[len(trailerStart):] {
		if ch < '0' || ch > '9' {
			break
		}
		res.tuples = res.tuples*10 + int(ch-'0')
	}
	if res.tuples != lines-2 {
		return res, fmt.Errorf("trailer reports %d tuples, stream carried %d tuple lines", res.tuples, lines-2)
	}
	res.bytes -= int64(len(last) + 1)
	return res, nil
}

// readBody reads a whole response into the client's reused buffer and
// returns the time of the first body byte.
func (c *client) readBody(resp *http.Response, start time.Time) (first time.Duration, err error) {
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body[:cap(c.body)], 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		if n > 0 && first == 0 {
			first = time.Since(start)
		}
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			return first, nil
		}
		if err != nil {
			return first, err
		}
	}
}

// query runs one POST /query. The materialized JSON arrives in one
// piece, so the first result tuple is available with the first body
// byte. The body stays in c.body until the next call.
func (c *client) query(reqBody []byte) (opResult, error) {
	var res opResult
	start := time.Now()
	resp, err := c.post("/query", reqBody)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if res.ttft, err = c.readBody(resp, start); err != nil {
		return res, err
	}
	res.total = time.Since(start)
	res.tuples = bytes.Count(c.body, tupleMark)
	res.bytes = int64(len(c.body))
	return res, nil
}

// put replaces a relation; the returned latency is send → 2xx read.
func (c *client) put(name string, body []byte) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPut, c.base+"/relations/"+name, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("PUT %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return time.Since(start), nil
}

// get fetches a small resource (GET /relations/{name}, /metrics).
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// loopStats is what one closed-loop client saw over one window.
type loopStats struct {
	ops       []opResult
	attempted int
	failed    int
	wall      time.Duration
	firstErr  error
}

// runLoop calls op(i) back to back until the window closes; a call in
// flight at the deadline completes and counts, and wall is the client's
// own first-send → last-byte time, so throughput has no edge effect.
func runLoop(window time.Duration, op func(i int) (opResult, error)) loopStats {
	var st loopStats
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		res, err := op(i)
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.ops = append(st.ops, res)
	}
	st.wall = time.Since(start)
	return st
}
