package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/datagen"
)

// The traced run: the workload's inputs pushed through each layer's
// public functions in-process, on one goroutine, with a span around
// every call (layers.go holds the calls). Three parts:
//
//   - load: the CSV → catalog path, once;
//   - write side: a fixed script of 16 PUTs through decode → admit →
//     segment store on a counting filesystem, once;
//   - read side: for every query of the cycle, an in-process replica of
//     the request handler plus standalone passes over single layers,
//     repeated until half the window is spent (medians over cycles).
//
// The other half of the window goes to the real tpserve: one client
// alone (its latency minus the replica's is server.http_residual_ms),
// then the workload's normal load, after which /metrics and the peak
// RSS are read.

// timed runs f inside a span; on a nil tracer it only times it.
func (t *tracer) timed(name string, parent, request int, f func()) time.Duration {
	id := t.begin(name, parent, request)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

type budget struct {
	env     *env
	w       *workload
	in      *inputs
	workers int // tpserve's default worker budget: GOMAXPROCS
	tr      *tracer
	req     int

	cat     *catalog                   // the catalog the read side queries
	sorted  map[string]*tpset.Relation // admitted relations, by name
	libDB   map[string]*tpset.Relation // lib-setops: relations as read from CSV
	samples map[string][]float64       // metric → one value per cycle (or per call)
	metrics metricSet
}

func (b *budget) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per is total/n, and 0 for a query that returned no tuples (a small
// -scale can produce one): the layer then did no per-tuple work to price.
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func runBudget(e *env, w *workload, in *inputs, seed int64, window time.Duration, outDir string) (metricSet, string, error) {
	b := &budget{env: e, w: w, in: in, workers: runtime.GOMAXPROCS(0), tr: newTracer(),
		sorted: map[string]*tpset.Relation{}, samples: map[string][]float64{}, metrics: metricSet{}}
	if err := b.load(); err != nil {
		return nil, "", err
	}
	if err := b.writeSide(); err != nil {
		return nil, "", err
	}
	if err := b.readSide(window / 2); err != nil {
		return nil, "", err
	}
	if err := b.serverSide(window / 4); err != nil {
		return nil, "", err
	}
	for name, xs := range b.samples {
		b.metrics.set(name, median(xs), len(xs))
	}
	b.metrics.set("bench.gen_s", in.genS, 1)
	for _, d := range layerMetrics {
		if _, ok := b.metrics[d.name]; !ok {
			return nil, "", fmt.Errorf("layer metric %s was not measured", d.name)
		}
	}
	path, err := b.tr.write(outDir, w.name, seed)
	return b.metrics, path, err
}

// load times the CSV → catalog path for every relation of the workload
// and leaves the admitted catalog behind for the read side.
func (b *budget) load() error {
	b.cat = newCatalog()
	b.libDB = map[string]*tpset.Relation{}
	var read, intern, sort, validate, cols time.Duration
	tuples := 0
	root := b.tr.begin("load", -1, 0)
	for _, name := range b.in.names {
		var r *tpset.Relation
		var err error
		read += b.tr.timed("csvio.read", root, 0, func() { r, err = layerReadCSV(b.in.csv[name], name) })
		if err != nil {
			return err
		}
		b.libDB[name] = r
		tuples += r.Len()
		unbound := r.Clone()
		unbound.Unbind()
		intern += b.tr.timed("relation.intern", root, 0, func() { layerIntern(unbound) })
		validate += b.tr.timed("relation.validate", root, 0, func() { err = layerValidate(r) })
		if err != nil {
			return err
		}
		var s *tpset.Relation
		sort += b.tr.timed("relation.sort", root, 0, func() { s = layerSort(r) })
		cols += b.tr.timed("relation.buildcols", root, 0, func() { layerBuildCols(s) })
		layerAdmit(b.cat, name, s)
		b.sorted[name] = s
	}
	b.tr.end(root)
	rels := make([]*tpset.Relation, 0, len(b.libDB))
	for _, r := range b.libDB {
		rels = append(rels, r)
	}
	tpset.InternAll(rels...)
	n := float64(tuples)
	b.add("csvio.read_ns_per_tuple", ns(read)/n)
	b.add("relation.intern_ns_per_tuple", ns(intern)/n)
	b.add("relation.sort_ns_per_tuple", ns(sort)/n)
	b.add("relation.validate_ns_per_tuple", ns(validate)/n)
	b.add("relation.buildcols_ns_per_tuple", ns(cols)/n)
	return nil
}

// putRelations are the relations the write-side script PUTs: the
// workload's own PUT set, or — for a read-only workload — a PutTuples
// prefix of each of its first four relations, so the write-side layers
// are costed on every workload's data shape.
func (b *budget) putRelations() []*tpset.Relation {
	var out []*tpset.Relation
	if len(b.w.puts) > 0 {
		for _, name := range b.w.puts {
			out = append(out, b.in.rels[name])
		}
		return out
	}
	for i, name := range b.in.names {
		if i == 4 {
			break
		}
		out = append(out, datagen.Subset(b.in.rels[name], b.in.sz.PutTuples))
	}
	return out
}

const (
	encodeRelSample = 1 << 16 // result tuples the /query encoder pass encodes

	scriptPuts  = 16 // PUTs of the write-side script
	flushEvery  = 2  // explicit Flush cadence: Put itself never reaches the 4 MiB apply threshold
	restoreReps = 3
)

// writeSide runs the fixed PUT script against a scratch catalog and a
// segment store on a counting filesystem. It is serial and its inputs
// are fixed by the seed, so the byte and fsync counts repeat exactly.
func (b *budget) writeSide() error {
	cat := newCatalog()
	dir := filepath.Join(b.env.tmp, "store-"+b.w.name)
	cfs := &countingFS{}
	st, err := layerOpenStore(dir, cfs)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	// Seed catalog and store with the whole catalog, as tpserve's start
	// does, so a dictionary rebuild has the real catalog to rebind.
	for _, name := range b.in.names {
		c := b.sorted[name].Clone()
		rebound := layerAdmit(cat, name, c)
		if err := layerStorePut(st, name, c, rebound); err != nil {
			return err
		}
	}
	if err := layerStoreFlush(st); err != nil {
		return err
	}
	cfs.bytes, cfs.fsyncs = 0, 0

	var bodies []*putBody
	for _, r := range b.putRelations() {
		pb, err := newPutBody(r.Schema.Name, r)
		if err != nil {
			return err
		}
		bodies = append(bodies, pb)
	}
	root := b.tr.begin("write-side", -1, 0)
	var userBytes int64
	for i := 0; i < scriptPuts; i++ {
		pb := bodies[i%len(bodies)]
		body := pb.template
		if i%freshEvery == freshEvery-1 {
			body = pb.fresh(i / freshEvery)
		}
		userBytes += int64(len(body))
		req := i + 1
		put := b.tr.begin("put", root, req)
		var rj relationJSON
		d := b.tr.timed("server.decode_json", put, req, func() { rj, err = layerDecodeJSON(body) })
		if err != nil {
			return err
		}
		n := float64(len(rj.Tuples))
		b.add("server.decode_json_ns_per_tuple", ns(d)/n)
		var rel *tpset.Relation
		d = b.tr.timed("server.decode_rel", put, req, func() { rel, err = layerDecodeRelation(rj, pb.name) })
		if err != nil {
			return err
		}
		b.add("server.decode_rel_ns_per_tuple", ns(d)/n)
		var rebound map[string]*tpset.Relation
		d = b.tr.timed("server.admit", put, req, func() { rebound = layerAdmit(cat, pb.name, rel) })
		if len(rebound) > 0 {
			b.add("server.admit_newfacts_ms", ms(d))
		} else {
			b.add("server.admit_known_us", us(d))
		}
		d = b.tr.timed("segment.encode", put, req, func() { _, err = layerSegmentEncode(rel) })
		if err != nil {
			return err
		}
		b.add("segment.encode_ns_per_tuple", ns(d)/n)
		d = b.tr.timed("segment.put", put, req, func() { err = layerStorePut(st, pb.name, rel, rebound) })
		if err != nil {
			return err
		}
		b.add("segment.put_ms", ms(d))
		if i%flushEvery == flushEvery-1 {
			d = b.tr.timed("segment.apply", put, req, func() { err = layerStoreFlush(st) })
			if err != nil {
				return err
			}
			b.add("segment.apply_ms", ms(d))
		}
		b.tr.end(put)
	}
	b.tr.end(root)
	b.metrics.set("faultfs.bytes_written_per_user_byte", float64(cfs.bytes)/float64(userBytes), 0)
	b.metrics.set("faultfs.fsyncs_per_put", float64(cfs.fsyncs)/scriptPuts, 0)
	err = st.Close()
	st = nil
	if err != nil {
		return err
	}
	for i := 0; i < restoreReps; i++ {
		var got int
		d := b.tr.timed("segment.restore", -1, 0, func() { got, err = layerRestore(dir) })
		if err != nil {
			return err
		}
		if got != len(b.in.names) {
			return fmt.Errorf("restore returned %d relations, want %d", got, len(b.in.names))
		}
		b.add("segment.restore_ms", ms(d))
	}
	return os.RemoveAll(dir)
}

// replica is the in-process copy of the request path the workload's
// clients exercise, span by span. It runs traced (tr = b.tr) and, for
// the overhead ratio, untraced (tr = nil).
type replicaTimes struct {
	wall   time.Duration
	tuples int
}

func (b *budget) replica(tr *tracer, q string) (rt replicaTimes, err error) {
	req := b.req
	t0 := time.Now()
	root := tr.begin("request", -1, req)
	defer func() {
		tr.end(root)
		rt.wall = time.Since(t0)
	}()
	if b.w.mode == modeLib {
		var out *tpset.Relation
		tr.timed("tpset.Eval", root, req, func() {
			var n tpset.Query
			if n, err = tpset.ParseQuery(q); err == nil {
				out, err = tpset.Eval(n, b.libDB)
			}
		})
		if err == nil {
			rt.tuples = out.Len()
		}
		return rt, err
	}
	var node tpset.Query
	var names []string
	tr.timed("query.parse_plan", root, req, func() { node, names, err = layerParsePlan(q) })
	if err != nil {
		return rt, err
	}
	var db map[string]*tpset.Relation
	tr.timed("server.snapshot", root, req, func() { db, err = layerSnapshot(b.cat, names) })
	if err != nil {
		return rt, err
	}
	var cur *cursor
	tr.timed("engine.plan", root, req, func() { cur, err = layerPlan(b.workers, node, db) })
	if err != nil {
		return rt, err
	}
	if b.w.mode == modeQuery {
		var out *tpset.Relation
		tr.timed("engine.drain", root, req, func() { out = layerMaterialize(cur) })
		tr.timed("server.encode", root, req, func() { _, err = layerEncodeRelation(out) })
		rt.tuples = out.Len()
		return rt, err
	}
	// The /query/stream loop: pull a batch, encode it, flush.
	se := newStreamEncoder()
	bt := newBatch(streamRampBatch)
	for first := true; ; {
		id := tr.begin("engine.drain", root, req)
		ok := layerNextBatch(cur, bt)
		tr.end(id)
		if !ok {
			break
		}
		id = tr.begin("server.encode", root, req)
		err = se.layerEncodeBatch(bt)
		tr.end(id)
		if err != nil {
			break
		}
		rt.tuples += len(bt.Tuples)
		if first {
			first = false
			bt = newBatch(streamBatchTuples)
		}
	}
	cur.Close()
	return rt, err
}

// queryState is what the read side prepares once per query.
type queryState struct {
	q        string
	node     tpset.Query
	db       map[string]*tpset.Relation
	operands [][2]*tpset.Relation
	inTuples int
	shards   int
}

func (b *budget) prepareQuery(q string) (*queryState, error) {
	node, names, err := layerParsePlan(q)
	if err != nil {
		return nil, err
	}
	db, err := layerSnapshot(b.cat, names)
	if err != nil {
		return nil, err
	}
	qs := &queryState{q: q, node: node, db: db}
	if qs.operands, qs.inTuples, err = sweepOperands(node, db); err != nil {
		return nil, err
	}
	qs.shards, err = layerShards(b.workers, node, db)
	return qs, err
}

// cycleTotals sums one pass over the query cycle.
type cycleTotals struct {
	ops, in, out                                      int
	parsePlan, snapshot, plan, drain, drainSeq        time.Duration
	sweep, opCursor, probs, render, encode, encodeRel time.Duration
	replicaOn, replicaOff                             time.Duration
	planAlloc, allocs, allocBytes, encAllocs          uint64
	windows, outBytes                                 int64
	shards, encodeRelTuples                           int
}

func (b *budget) readSide(window time.Duration) error {
	var states []*queryState
	for _, q := range b.w.queries {
		qs, err := b.prepareQuery(q)
		if err != nil {
			return err
		}
		states = append(states, qs)
	}
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < window; cycle++ {
		var c cycleTotals
		for _, qs := range states {
			if err := b.queryPasses(qs, &c); err != nil {
				return fmt.Errorf("%s: %v", qs.q, err)
			}
		}
		ops, in, out := float64(c.ops), float64(c.in), float64(c.out)
		b.add("query.parse_plan_us", us(c.parsePlan)/ops)
		b.add("server.snapshot_us", us(c.snapshot)/ops)
		b.add("engine.plan_ms", ms(c.plan)/ops)
		b.add("engine.plan_alloc_bytes", float64(c.planAlloc)/ops)
		b.add("engine.shards", float64(c.shards)/ops)
		b.add("engine.drain_ms", ms(c.drain)/ops)
		b.add("engine.drain_seq_ms", ms(c.drainSeq)/ops)
		b.add("engine.allocs_per_op", float64(c.allocs)/ops)
		b.add("engine.alloc_bytes_per_op", float64(c.allocBytes)/ops)
		b.add("core.sweep_ns_per_in_tuple", ns(c.sweep)/in)
		b.add("core.windows_per_in_tuple", float64(c.windows)/in)
		b.add("core.opcursor_ns_per_in_tuple", ns(c.opCursor)/in)
		// A difference of two passes, not a span of its own; meaningless
		// where run-skipping makes the cursor plan cheaper than the
		// plain sweep (sparse intersection).
		b.add("lineage.concat_ns_per_out_tuple", per(ns(c.opCursor-c.sweep), out))
		b.add("lineage.prob_ns_per_out_tuple", per(ns(c.probs), out))
		b.add("lineage.render_ns_per_out_tuple", per(ns(c.render), out))
		b.add("server.encode_ns_per_out_tuple", per(ns(c.encode), out))
		b.add("server.encode_allocs_per_out_tuple", per(float64(c.encAllocs), out))
		b.add("server.out_bytes_per_tuple", per(float64(c.outBytes), out))
		b.add("server.encode_rel_ns_per_out_tuple", per(ns(c.encodeRel), float64(c.encodeRelTuples)))
		b.add("server.stream_inproc_ms", ms(c.replicaOn)/ops)
		b.add("bench.trace_overhead_ratio", float64(c.replicaOn)/float64(c.replicaOff))
	}
	return nil
}

// queryPasses runs the replica (untraced, then traced) and every
// standalone layer pass for one query, adding to the cycle totals.
func (b *budget) queryPasses(qs *queryState, c *cycleTotals) error {
	b.req++
	req := b.req
	off, err := b.replica(nil, qs.q)
	if err != nil {
		return err
	}
	on, err := b.replica(b.tr, qs.q)
	if err != nil {
		return err
	}
	c.ops++
	c.in += qs.inTuples
	c.out += on.tuples
	c.shards += qs.shards
	c.replicaOff += off.wall
	c.replicaOn += on.wall

	probe := b.tr.begin("probe", -1, req)
	defer b.tr.end(probe)
	var names []string
	c.parsePlan += b.tr.timed("query.parse_plan", probe, req, func() { _, names, err = layerParsePlan(qs.q) })
	if err != nil {
		return err
	}
	c.snapshot += b.tr.timed("server.snapshot", probe, req, func() { _, err = layerSnapshot(b.cat, names) })
	if err != nil {
		return err
	}

	// Plan + drain at the server's worker budget, with the allocator read
	// around both.
	m0, b0 := mallocs()
	var cur *cursor
	c.plan += b.tr.timed("engine.plan", probe, req, func() { cur, err = layerPlan(b.workers, qs.node, qs.db) })
	if err != nil {
		return err
	}
	_, b1 := mallocs()
	c.planAlloc += b1 - b0
	var drained int
	c.drain += b.tr.timed("engine.drain", probe, req, func() { drained = layerDrain(cur) })
	m2, b2 := mallocs()
	c.allocs += m2 - m0
	c.allocBytes += b2 - b0
	if b.w.mode != modeLib && drained != on.tuples {
		return fmt.Errorf("drain produced %d tuples, replica %d", drained, on.tuples)
	}

	// The same with one worker: no partition copy, no merge.
	if cur, err = layerPlan(1, qs.node, qs.db); err != nil {
		return err
	}
	m0, _ = mallocs()
	c.drainSeq += b.tr.timed("engine.drain_seq", probe, req, func() { layerDrain(cur) })
	seqAllocs, _ := mallocs()
	seqAllocs -= m0

	// And once more with the stream encoder between the pulls; the
	// encoder's allocations are this pass's minus the previous one's.
	if cur, err = layerPlan(1, qs.node, qs.db); err != nil {
		return err
	}
	se := newStreamEncoder()
	bt := newBatch(streamBatchTuples)
	m0, _ = mallocs()
	enc := b.tr.begin("server.encode_stream", probe, req)
	var encode time.Duration
	for layerNextBatch(cur, bt) {
		t0 := time.Now()
		if err := se.layerEncodeBatch(bt); err != nil {
			return err
		}
		encode += time.Since(t0)
	}
	b.tr.end(enc)
	cur.Close()
	m2, _ = mallocs()
	c.encode += encode
	c.outBytes += se.out.n
	if both := m2 - m0; both > seqAllocs {
		c.encAllocs += both - seqAllocs
	}

	var windows int64
	c.sweep += b.tr.timed("core.sweep", probe, req, func() { windows = layerSweep(qs.operands) })
	c.windows += windows
	lp, err := newLazyPlan(qs.node, qs.db, drained)
	if err != nil {
		return err
	}
	var lazy *tpset.Relation
	c.opCursor += b.tr.timed("core.opcursor", probe, req, func() { lazy = lp.layerDrain() })
	c.probs += b.tr.timed("lineage.prob", probe, req, func() { layerProbs(lazy) })
	c.render += b.tr.timed("lineage.render", probe, req, func() { layerRender(lazy) })
	// The /query encoder costs three times the stream encoder per tuple;
	// a prefix is enough to price a tuple.
	head := datagen.Subset(lazy, encodeRelSample)
	d := b.tr.timed("server.encode_rel", probe, req, func() { _, err = layerEncodeRelation(head) })
	c.encodeRel += d
	c.encodeRelTuples += head.Len()
	return err
}

// serverProbe is the traced run's view of the real tpserve.
type serverProbe struct {
	window  time.Duration
	httpOp  float64 // ms: mean over the cycle's queries of the single-client median
	hits0   float64
	misses0 float64
	shed0   float64

	hitRatio, shed, rssPeakMB float64
}

type serverCounters struct {
	QueriesShed float64 `json:"queriesShed"`
	Cache       struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
}

func readCounters(srv *child) (serverCounters, error) {
	var m serverCounters
	c := newClient(srv.base)
	defer c.close()
	data, err := c.get("/metrics")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// before runs one client alone through the cycle (kinds queries, at
// least once each) and notes the counters the load will move.
func (p *serverProbe) before(srv *child, op func(i int) (opResult, error), kinds int) error {
	lat := make([][]float64, kinds)
	start := time.Now()
	for i := 0; i < kinds || time.Since(start) < p.window; i++ {
		res, err := op(i)
		if err != nil {
			return err
		}
		lat[i%kinds] = append(lat[i%kinds], ms(res.total))
	}
	for _, xs := range lat {
		p.httpOp += median(xs) / float64(kinds)
	}
	m, err := readCounters(srv)
	p.hits0, p.misses0, p.shed0 = m.Cache.Hits, m.Cache.Misses, m.QueriesShed
	return err
}

// after reads what the load did to the cache and the gate, and the
// process's peak resident set.
func (p *serverProbe) after(srv *child) error {
	m, err := readCounters(srv)
	if err != nil {
		return err
	}
	if lookups := m.Cache.Hits - p.hits0 + m.Cache.Misses - p.misses0; lookups > 0 {
		p.hitRatio = (m.Cache.Hits - p.hits0) / lookups
	}
	p.shed = m.QueriesShed - p.shed0
	p.rssPeakMB, err = rssPeakMB(srv.pid())
	return err
}

// serverSide runs the real program. lib-setops has none: its HTTP and
// cache metrics are zero by definition, and the process whose peak RSS
// matters is this one.
func (b *budget) serverSide(window time.Duration) error {
	p := &serverProbe{window: window}
	residual := 0.0
	if b.w.mode == modeLib {
		var err error
		if p.rssPeakMB, err = rssPeakMB(os.Getpid()); err != nil {
			return err
		}
	} else {
		x := newScenario(b.env, b.w, b.in, plan{setups: 1, timed: window})
		x.probe = p
		if err := x.run(); err != nil {
			return err
		}
		if x.failed > 0 {
			return fmt.Errorf("%d of %d operations failed under load: %v", x.failed, x.attempted, x.firstErr)
		}
		residual = p.httpOp - median(b.samples["server.stream_inproc_ms"])
	}
	b.metrics.set("server.http_op_ms", p.httpOp, 0)
	b.metrics.set("server.http_residual_ms", residual, 0)
	b.metrics.set("server.cache_hit_ratio", p.hitRatio, 0)
	b.metrics.set("server.shed_total", p.shed, 0)
	b.metrics.set("server.rss_peak_mb", p.rssPeakMB, 0)
	return nil
}
