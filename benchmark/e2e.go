package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/tpset/tpset"
)

// plan is how long and how often a scenario runs its phases. The oracle
// pass runs the same scenario code on verifySizes with empty windows.
type plan struct {
	setups   int           // times set-up is measured (median reported)
	warm     time.Duration // untimed load before the window
	timed    time.Duration // the measured window
	restarts int           // durable-mixed kill → restart → verify → PUT cycles
	oracle   bool          // compare every verified response with internal/ref
}

// scenario is one workload run end to end against the real program.
type scenario struct {
	env  *env
	w    *workload
	in   *inputs
	plan plan

	metrics   metricSet
	attempted int
	failed    int
	firstErr  error
	expected  map[string][]int // query → verified tuple counts
	inTuples  map[string]int   // query → input tuples per op

	// probe, when set (the traced run), measures single-client latency
	// before the load and reads /metrics and peak RSS after it.
	probe *serverProbe
}

func newScenario(e *env, w *workload, in *inputs, p plan) *scenario {
	x := &scenario{env: e, w: w, in: in, plan: p, metrics: metricSet{},
		expected: map[string][]int{}, inTuples: map[string]int{}}
	for _, q := range w.queries {
		for _, name := range queryRelations(q) {
			x.inTuples[q] += in.rels[name].Len()
		}
	}
	return x
}

func (x *scenario) run() error {
	switch x.w.mode {
	case modeStream:
		return x.stream()
	case modeQuery:
		return x.durable()
	default:
		return x.lib()
	}
}

// count folds client loop results into the attempted/failed totals.
func (x *scenario) count(stats ...loopStats) {
	for _, st := range stats {
		x.attempted += st.attempted
		x.failed += st.failed
		if x.firstErr == nil {
			x.firstErr = st.firstErr
		}
	}
}

// startMeasured starts tpserve plan.setups times (mk returns the args,
// fresh per start) and reports the median exec → healthy time; only the
// last instance is kept.
func (x *scenario) startMeasured(mk func() []string) (*child, error) {
	var times []float64
	var srv *child
	for i := 0; i < x.plan.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		s, d, err := x.env.start(mk()...)
		if err != nil {
			return nil, err
		}
		srv = s
		times = append(times, d.Seconds())
	}
	x.metrics.set("setup_s", median(times), len(times))
	progress("  %d set-ups done", len(times))
	return srv, nil
}

// latencyMetrics reports throughput and the latency quantiles of the
// clients' query (or Eval) operations. A cycle mixes queries whose
// latencies differ severalfold, and the median of such a mixture jumps
// between clusters with the mix's composition; so the p50s are taken
// per query of the cycle and averaged — for a one-query cycle, the
// plain median. A query of the cycle with no successful operation in
// the window has no median: the run fails and names it.
func (x *scenario) latencyMetrics(opsPerS float64, ops []opResult) error {
	kinds := len(x.w.queries)
	total, ttft := make([][]float64, kinds), make([][]float64, kinds)
	var all []float64
	for _, o := range ops {
		total[o.kind] = append(total[o.kind], ms(o.total))
		ttft[o.kind] = append(ttft[o.kind], ms(o.ttft))
		all = append(all, ms(o.total))
	}
	var p50, ttft50 float64
	for k := 0; k < kinds; k++ {
		if len(total[k]) == 0 {
			return fmt.Errorf("no successful %q in the window (%d of %d operations failed, first: %v)",
				x.w.queries[k], x.failed, x.attempted, x.firstErr)
		}
		p50 += median(total[k]) / float64(kinds)
		ttft50 += median(ttft[k]) / float64(kinds)
		progress("  %-18s n=%-5d p50 %.2f ms, first tuple %.2f ms", x.w.queries[k], len(total[k]), median(total[k]), median(ttft[k]))
	}
	x.metrics.set("ops_per_s", opsPerS, len(ops))
	x.metrics.set("op_p50_ms", p50, len(ops))
	if x.w.mode == modeStream {
		// Only a stream hands over its first tuple before its last.
		x.metrics.set("ttft_p50_ms", ttft50, len(ops))
	}
	if x.w.tail {
		x.metrics.set("op_p95_ms", quantile(all, 0.95), len(all))
	}
	return nil
}

func rate(st loopStats) float64 {
	if st.wall <= 0 {
		return 0
	}
	return float64(len(st.ops)) / st.wall.Seconds()
}

// --- stream workloads ---

func (x *scenario) stream() error {
	srv, err := x.startMeasured(x.in.relArgs)
	if err != nil {
		return err
	}
	defer srv.kill()

	// Verify every query of the cycle once, decoded in full; its counts
	// are what every timed operation must reproduce.
	type expect struct {
		tuples int
		bytes  int64
	}
	vc := newClient(srv.base)
	defer vc.close()
	exp := make([]expect, len(x.w.queries))
	bodies := make([][]byte, len(x.w.queries))
	for i, q := range x.w.queries {
		bodies[i] = queryBody(q)
		resp, err := vc.post("/query/stream", bodies[i])
		if err != nil {
			return err
		}
		_, err = vc.readBody(resp, time.Now())
		resp.Body.Close()
		if err != nil {
			return err
		}
		rows, payload, err := decodeStream(vc.body)
		if err != nil {
			return fmt.Errorf("%s: %v", q, err)
		}
		if err := x.check(q, rows, x.in.rels); err != nil {
			return err
		}
		exp[i] = expect{tuples: len(rows), bytes: payload}
		x.expected[q] = []int{len(rows)}
	}
	vc.body = nil // the dense bodies are tens of MB

	const nClients = 2
	clients := make([]*client, nClients)
	for k := range clients {
		clients[k] = newClient(srv.base)
		defer clients[k].close()
	}
	op := func(k int) func(i int) (opResult, error) {
		return func(i int) (opResult, error) {
			// Client k starts k steps into the cycle, so the two clients
			// do not run the same operation in lockstep.
			j := (i + k) % len(bodies)
			res, err := clients[k].stream(bodies[j])
			res.kind = j
			if err == nil && (res.tuples != exp[j].tuples || res.bytes != exp[j].bytes) {
				err = fmt.Errorf("%s: %d tuples / %d bytes, verified %d / %d",
					x.w.queries[j], res.tuples, res.bytes, exp[j].tuples, exp[j].bytes)
			}
			return res, err
		}
	}
	if x.probe != nil {
		if err := x.probe.before(srv, op(0), len(bodies)); err != nil {
			return err
		}
	}
	progress("  verified; warm-up %v, window %v", x.plan.warm, x.plan.timed)
	runClients(nClients, x.plan.warm, op)
	stats := runClients(nClients, x.plan.timed, op)
	progress("  window closed")
	x.count(stats...)
	if x.plan.timed > 0 {
		var ops []opResult
		tput := 0.0
		for _, st := range stats {
			ops = append(ops, st.ops...)
			tput += rate(st)
		}
		if err := x.latencyMetrics(tput, ops); err != nil {
			return err
		}
	}
	if x.probe != nil {
		return x.probe.after(srv)
	}
	return nil
}

// runClients runs n closed-loop clients side by side over one window.
func runClients(n int, window time.Duration, op func(k int) func(i int) (opResult, error)) []loopStats {
	stats := make([]loopStats, n)
	if window <= 0 {
		return stats
	}
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			stats[k] = runLoop(window, op(k))
		}(k)
	}
	wg.Wait()
	return stats
}

// check applies the scale-independent result checks and, on the oracle
// pass, the tuple-for-tuple comparison with internal/ref.
func (x *scenario) check(q string, rows []row, db map[string]*tpset.Relation) error {
	if err := checkCanonical(rows); err != nil {
		return fmt.Errorf("%s: %v", q, err)
	}
	if !x.plan.oracle {
		return nil
	}
	want, err := refRows(q, db)
	if err != nil {
		return err
	}
	if err := sameRows(rows, want); err != nil {
		return fmt.Errorf("%s differs from the Def. 3 oracle: %v", q, err)
	}
	return nil
}

// --- lib-setops ---

func (x *scenario) lib() error {
	var db map[string]*tpset.Relation
	var times []float64
	for i := 0; i < x.plan.setups; i++ {
		t0 := time.Now()
		db = make(map[string]*tpset.Relation, len(x.in.names))
		rels := make([]*tpset.Relation, 0, len(x.in.names))
		for _, name := range x.in.names {
			r, err := tpset.ReadCSVFile(x.in.csv[name], name)
			if err != nil {
				return err
			}
			db[name] = r
			rels = append(rels, r)
		}
		tpset.InternAll(rels...)
		times = append(times, time.Since(t0).Seconds())
	}
	x.metrics.set("setup_s", median(times), len(times))

	qs := x.w.queries[0]
	q, err := tpset.ParseQuery(qs)
	if err != nil {
		return err
	}
	first, err := tpset.Eval(q, db)
	if err != nil {
		return err
	}
	if err := x.check(qs, rowsOf(first), db); err != nil {
		return err
	}
	want := first.Len()
	x.expected[qs] = []int{want}

	op := func(int) (opResult, error) {
		t0 := time.Now()
		out, err := tpset.Eval(q, db)
		d := time.Since(t0)
		if err == nil && out.Len() != want {
			err = fmt.Errorf("%s: %d tuples, verified %d", qs, out.Len(), want)
		}
		// The materializing API hands over its first tuple when it returns.
		return opResult{total: d, ttft: d, tuples: want}, err
	}
	progress("  verified; warm-up %v, window %v", x.plan.warm, x.plan.timed)
	runLoop(x.plan.warm, op)
	st := runLoop(x.plan.timed, op)
	progress("  window closed")
	x.count(st)
	if x.plan.timed > 0 {
		return x.latencyMetrics(rate(st), st.ops)
	}
	return nil
}

// --- durable-mixed ---

// freshEvery is the PUT cadence of a body with unseen fact names.
const freshEvery = 8

// putter is client B's state: the PUT sequence position survives the
// warm-up → window → restart phases, and acked remembers, per relation,
// the last body tpserve acknowledged — what must survive a kill -9.
type putter struct {
	bodies []*putBody
	seq    int
	gen    int
	acked  map[string][]byte
}

func (p *putter) next(c *client) (opResult, error) {
	b := p.bodies[p.seq%len(p.bodies)]
	body := b.template
	if p.seq%freshEvery == freshEvery-1 {
		body = b.fresh(p.gen)
		p.gen++
	}
	p.seq++
	d, err := c.put(b.name, body)
	if err == nil {
		p.acked[b.name] = body
	}
	return opResult{total: d}, err
}

func (x *scenario) durable() error {
	dataDir := filepath.Join(x.env.tmp, "data-"+x.w.name)
	srv, err := x.startMeasured(func() []string {
		// Every measured start ingests the CSVs into an empty directory.
		os.RemoveAll(dataDir)
		return append([]string{"-data-dir", dataDir}, x.in.relArgs()...)
	})
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()

	pt := &putter{acked: map[string][]byte{}}
	for _, name := range x.w.puts {
		b, err := newPutBody(name, x.in.rels[name])
		if err != nil {
			return err
		}
		pt.bodies = append(pt.bodies, b)
		pt.acked[name] = b.template // the CSV seed holds the same tuples
	}
	qc, pc := newClient(srv.base), newClient(srv.base)
	defer func() {
		qc.close()
		pc.close()
	}()

	// Verify every query on the seeded catalog, then once more with the
	// fresh-fact variant of the relation that receives it (the last of
	// the round-robin: freshEvery is a multiple of the PUT set size), so
	// the timed loop knows both valid tuple counts.
	bodies := make([][]byte, len(x.w.queries))
	for i, q := range x.w.queries {
		bodies[i] = queryBody(q)
	}
	verifyAll := func() error {
		db, err := x.currentDB(pt)
		if err != nil {
			return err
		}
		for i, q := range x.w.queries {
			if _, err := qc.query(bodies[i]); err != nil {
				return err
			}
			rows, err := decodeQuery(qc.body)
			if err != nil {
				return fmt.Errorf("%s: %v", q, err)
			}
			if err := x.check(q, rows, db); err != nil {
				return err
			}
			if !slices.Contains(x.expected[q], len(rows)) {
				x.expected[q] = append(x.expected[q], len(rows))
			}
		}
		return nil
	}
	if err := verifyAll(); err != nil {
		return err
	}
	last := pt.bodies[len(pt.bodies)-1]
	for _, body := range [][]byte{last.fresh(pt.gen), last.template} {
		if _, err := pc.put(last.name, body); err != nil {
			return err
		}
		pt.acked[last.name] = body
		if err := verifyAll(); err != nil {
			return err
		}
	}
	pt.gen++

	queryOp := func(i int) (opResult, error) {
		j := i % len(bodies)
		res, err := qc.query(bodies[j])
		res.kind = j
		if err == nil && !slices.Contains(x.expected[x.w.queries[j]], res.tuples) {
			err = fmt.Errorf("%s: %d tuples, verified %v", x.w.queries[j], res.tuples, x.expected[x.w.queries[j]])
		}
		return res, err
	}
	load := func(window time.Duration) []loopStats {
		return runClients(2, window, func(k int) func(int) (opResult, error) {
			if k == 0 {
				return queryOp
			}
			return func(int) (opResult, error) { return pt.next(pc) }
		})
	}
	if x.probe != nil {
		noCache := make([][]byte, len(x.w.queries))
		for i, q := range x.w.queries {
			noCache[i] = []byte(fmt.Sprintf(`{"query":%q,"noCache":true}`, q))
		}
		err := x.probe.before(srv, func(i int) (opResult, error) { return qc.query(noCache[i%len(noCache)]) }, len(noCache))
		if err != nil {
			return err
		}
	}
	progress("  verified; warm-up %v, window %v", x.plan.warm, x.plan.timed)
	load(x.plan.warm)
	stats := load(x.plan.timed)
	progress("  window closed")
	x.count(stats...)
	if x.plan.timed > 0 {
		queries, puts := stats[0], stats[1]
		if err := x.latencyMetrics(rate(queries)+rate(puts), queries.ops); err != nil {
			return err
		}
		if len(puts.ops) == 0 {
			return fmt.Errorf("no PUT was acknowledged in the window (%d attempted, first: %v)", puts.attempted, puts.firstErr)
		}
		var acks []float64
		for _, o := range puts.ops {
			acks = append(acks, ms(o.total))
		}
		x.metrics.set("put_ack_p50_ms", median(acks), len(acks))
		x.metrics.set("put_ack_p95_ms", quantile(acks, 0.95), len(acks))
	}
	if x.probe != nil {
		if err := x.probe.after(srv); err != nil {
			return err
		}
	}

	// kill -9 → restart on the same directory with no -rel → every
	// acknowledged body must be there → one more PUT, so the next kill
	// finds an unapplied WAL record to replay.
	var restarts []float64
	for k := 0; k < x.plan.restarts; k++ {
		t0 := time.Now()
		srv.kill()
		s, _, err := x.env.start("-data-dir", dataDir)
		if err != nil {
			return fmt.Errorf("restart %d: %v", k+1, err)
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		srv = s
		qc.close()
		pc.close()
		qc, pc = newClient(srv.base), newClient(srv.base)
		x.attempted++
		if err := x.verifyRestored(qc, pt); err != nil {
			x.failed++
			return fmt.Errorf("after restart %d: %v", k+1, err)
		}
		if x.plan.oracle {
			if err := verifyAll(); err != nil {
				return fmt.Errorf("after restart %d: %v", k+1, err)
			}
		}
		x.attempted++
		if _, err := pt.next(pc); err != nil {
			x.failed++
			return fmt.Errorf("PUT after restart %d: %v", k+1, err)
		}
	}
	if len(restarts) > 0 {
		x.metrics.set("restart_s", median(restarts), len(restarts))
		// A clean stop applies and fsyncs what the WAL still holds; the
		// directory is then the catalog's whole durable footprint.
		if err := srv.terminate(); err != nil {
			return err
		}
		disk, err := dirBytes(dataDir)
		if err != nil {
			return err
		}
		x.metrics.set("disk_bytes_per_user_byte", float64(disk)/float64(x.in.csvBytes), 0)
	}
	return nil
}

// verifyRestored checks a restarted server against client B's record:
// the whole catalog is back and every PUT-replaced relation equals its
// last acknowledged body.
func (x *scenario) verifyRestored(c *client, pt *putter) error {
	data, err := c.get("/healthz")
	if err != nil {
		return err
	}
	var hz struct {
		Relations int `json:"relations"`
	}
	if err := json.Unmarshal(data, &hz); err != nil {
		return err
	}
	if hz.Relations != len(x.in.names) {
		return fmt.Errorf("%d relations restored, want %d", hz.Relations, len(x.in.names))
	}
	for name, want := range pt.acked {
		got, err := c.get("/relations/" + name)
		if err != nil {
			return err
		}
		if err := sameRelationJSON(got, want); err != nil {
			return fmt.Errorf("relation %s differs from its last acknowledged PUT: %v", name, err)
		}
	}
	return nil
}

// currentDB is the catalog as the oracle must see it: the generated
// relations, with every PUT-replaced one decoded from its last
// acknowledged body. Only the oracle pass needs it.
func (x *scenario) currentDB(pt *putter) (map[string]*tpset.Relation, error) {
	if !x.plan.oracle {
		return nil, nil
	}
	db := make(map[string]*tpset.Relation, len(x.in.rels))
	for name, r := range x.in.rels {
		db[name] = r
	}
	for name, body := range pt.acked {
		r, err := tpset.UnmarshalRelationJSON(body, name)
		if err != nil {
			return nil, err
		}
		db[name] = r
	}
	return db, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
