package main

// Every call the layer budget makes into the program's packages lives
// in this file, one small function per timed call, so that a later
// signature change is a one-file edit. budget.go decides when each is
// called, times it and records the span; nothing here reads a clock.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"strings"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/csvio"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/segment"
	"github.com/tpset/tpset/internal/server"
)

type (
	catalog = server.Catalog
	batch   = core.Batch
	cursor  = engine.StreamCursor
	store   = segment.Store

	relationJSON = server.RelationJSON
)

// The handler's batch cadence (internal/server/stream.go): a small
// first batch so the first tuples ship early, then the steady size, all
// through one 64 KiB buffer.
const (
	streamRampBatch   = 64
	streamBatchTuples = 256
	streamBufSize     = 64 << 10
)

// --- query.* / server.Catalog: the request prologue ---

// layerParsePlan is what Server.prepare does before it touches the
// catalog: parse, push selections down, render the cache key, classify,
// list the relations.
func layerParsePlan(q string) (tpset.Query, []string, error) {
	node, err := query.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	opt := query.PushDownSelections(node)
	_ = query.Canonical(opt)
	_ = query.Classify(opt)
	return opt, query.Relations(opt), nil
}

func newCatalog() *catalog { return server.NewCatalog() }

func layerSnapshot(c *catalog, names []string) (map[string]*tpset.Relation, error) {
	db, _, err := c.Snapshot(names)
	return db, err
}

// --- engine: plan and drain ---

// serverOpts are the options the server evaluates catalog relations
// with (admission already validated and sorted them).
func serverOpts(lazy bool) core.Options { return core.Options{AssumeSorted: true, LazyProb: lazy} }

// layerPlan compiles the streaming plan at a worker budget: with more
// than one worker this is where every referenced relation is hashed and
// copied into shard partitions and the shard plans are built.
func layerPlan(workers int, n tpset.Query, db map[string]*tpset.Relation) (*cursor, error) {
	return engine.New(engine.Config{Workers: workers}).CursorCtx(context.Background(), n, db, serverOpts(false))
}

// layerShards counts the shard plans of a partitioned plan (0 for a
// sequential one) from the plan's own trace tree, built and discarded.
func layerShards(workers int, n tpset.Query, db map[string]*tpset.Relation) (int, error) {
	opts := serverOpts(false)
	opts.Span = obs.NewSpan("")
	cur, err := engine.New(engine.Config{Workers: workers}).CursorCtx(context.Background(), n, db, opts)
	if err != nil {
		return 0, err
	}
	cur.Close()
	shards := 0
	for _, c := range opts.Span.Snapshot().Children {
		if strings.HasPrefix(c.Op, "shard") {
			shards++
		}
	}
	return shards, nil
}

func newBatch(capacity int) *batch { return core.NewBatch(capacity) }

func layerNextBatch(c *cursor, b *batch) bool { return c.NextBatch(b) }

// layerDrain pulls a plan dry and returns the tuples it produced.
func layerDrain(c *cursor) int {
	b := core.NewBatch(streamBatchTuples)
	n := 0
	for c.NextBatch(b) {
		n += len(b.Tuples)
	}
	c.Close()
	return n
}

// layerMaterialize is the POST /query drain: the plan collected into a
// relation.
func layerMaterialize(c *cursor) *tpset.Relation {
	out := core.Materialize(c)
	c.Close()
	return out
}

// --- core: the LAWA sweep alone, and sweep + λ-filter + concatenation ---

// layerSweep runs the window advancer over both inputs of every set
// operation of the tree, producing nothing. prepared holds the sorted,
// column-projected operands (see sweepOperands).
func layerSweep(prepared [][2]*tpset.Relation) (windows int64) {
	for _, p := range prepared {
		a := core.NewAdvancer(p[0], p[1])
		for {
			if _, ok := a.Next(); !ok {
				break
			}
		}
		windows += a.Windows()
	}
	return windows
}

// sweepOperands materializes (untimed) the operand pair of every set
// operation of the tree, bottom up, and returns them with the number of
// input tuples the sweeps read.
func sweepOperands(n tpset.Query, db map[string]*tpset.Relation) (pairs [][2]*tpset.Relation, inTuples int, err error) {
	var walk func(n tpset.Query) (*tpset.Relation, error)
	walk = func(n tpset.Query) (*tpset.Relation, error) {
		switch q := n.(type) {
		case *query.Rel:
			return db[q.Name], nil
		case *query.SetOp:
			l, err := walk(q.Left)
			if err != nil {
				return nil, err
			}
			r, err := walk(q.Right)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, [2]*tpset.Relation{l, r})
			inTuples += l.Len() + r.Len()
			out, err := core.Apply(q.Op, l, r, serverOpts(true))
			if err != nil {
				return nil, err
			}
			out.BuildCols()
			return out, nil
		}
		return nil, fmt.Errorf("query node %T is neither a relation nor a set operation", n)
	}
	_, err = walk(n)
	return pairs, inTuples, err
}

// lazyPlan is the sequential cursor plan with probability valuation
// off — sweep + λ-filter + lineage concatenation — plus a result
// relation preallocated for capacity tuples, so that draining it times
// the operators and not slice growth.
type lazyPlan struct {
	c   core.Cursor
	out *tpset.Relation
}

func newLazyPlan(n tpset.Query, db map[string]*tpset.Relation, capacity int) (*lazyPlan, error) {
	c, err := query.BuildCursor(n, db, serverOpts(true))
	if err != nil {
		return nil, err
	}
	out := tpset.NewRelation(c.Schema().Name, c.Schema().Attrs...)
	out.Tuples = make([]tpset.Tuple, 0, capacity)
	return &lazyPlan{c: c, out: out}, nil
}

// layerDrain pulls the plan dry into the preallocated result.
func (p *lazyPlan) layerDrain() *tpset.Relation {
	bc := core.AsBatchCursor(p.c)
	b := core.NewBatch(streamBatchTuples)
	for bc.NextBatch(b) {
		p.out.Tuples = append(p.out.Tuples, b.Tuples...)
	}
	core.ReleaseCursor(p.c)
	return p.out
}

// --- lineage: probability valuation and rendering ---

func layerProbs(lazy *tpset.Relation) { lazy.ComputeProbs() }

func layerRender(r *tpset.Relation) (bytes int) {
	for i := range r.Tuples {
		bytes += len(r.Tuples[i].Lineage.String())
	}
	return bytes
}

// --- server: the two encoders ---

// countingDiscard is the socket stand-in of the in-process encoders.
type countingDiscard struct{ n int64 }

func (w *countingDiscard) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// streamEncoder is the /query/stream write side: EncodeBatchInto into a
// reused TupleJSON, json.Encoder.Encode into a 64 KiB bufio.Writer,
// flushed per batch.
type streamEncoder struct {
	out     countingDiscard
	bw      *bufio.Writer
	enc     *json.Encoder
	scratch server.TupleJSON
	probs   map[string]float64
}

func newStreamEncoder() *streamEncoder {
	se := &streamEncoder{probs: make(map[string]float64)}
	se.bw = bufio.NewWriterSize(&se.out, streamBufSize)
	se.enc = json.NewEncoder(se.bw)
	se.enc.SetEscapeHTML(false)
	return se
}

func (se *streamEncoder) layerEncodeBatch(b *batch) error {
	for i := range b.Tuples {
		server.EncodeBatchInto(&se.scratch, b, i, se.probs)
		if err := se.enc.Encode(&se.scratch); err != nil {
			return err
		}
	}
	return se.bw.Flush()
}

// layerEncodeRelation is the /query response encoder.
func layerEncodeRelation(r *tpset.Relation) (int, error) {
	data, err := json.Marshal(server.EncodeRelation(r, 0))
	return len(data), err
}

// --- csvio / relation: the load path ---

func layerReadCSV(path, name string) (*tpset.Relation, error) { return csvio.ReadFile(path, name) }

func layerIntern(unbound *tpset.Relation) { unbound.Intern() }

// layerSort is the materializing API's leaf preparation: clone, sort.
func layerSort(shuffled *tpset.Relation) *tpset.Relation {
	c := shuffled.Clone()
	c.Sort()
	return c
}

func layerValidate(r *tpset.Relation) error { return r.ValidateDuplicateFree() }

func layerBuildCols(sorted *tpset.Relation) { sorted.BuildCols() }

// --- server: PUT decode and admission ---

func layerDecodeJSON(body []byte) (relationJSON, error) {
	var rj relationJSON
	err := json.Unmarshal(body, &rj)
	return rj, err
}

func layerDecodeRelation(rj relationJSON, name string) (*tpset.Relation, error) {
	return server.DecodeRelation(rj, name)
}

// layerAdmit installs rel; rebound is non-empty exactly when rel brought
// unseen facts and the catalog-wide dictionary was rebuilt.
func layerAdmit(c *catalog, name string, rel *tpset.Relation) (rebound map[string]*tpset.Relation) {
	_, _, rebound = c.PutRebound(name, rel)
	return rebound
}

// --- segment / faultfs: the durable tier ---

func layerSegmentEncode(r *tpset.Relation) (int, error) {
	data, err := segment.Encode(r)
	return len(data), err
}

func layerOpenStore(dir string, fsys faultfs.FS) (*store, error) {
	return segment.OpenStoreFS(dir, fsys)
}

func layerStorePut(s *store, name string, rel *tpset.Relation, rebound map[string]*tpset.Relation) error {
	return s.Put(name, rel, rebound)
}

func layerStoreFlush(s *store) error { return s.Flush() }

// layerRestore is a restart's storage work: open the directory (WAL
// replay, map and validate every segment), materialize the relations,
// seed a catalog.
func layerRestore(dir string) (relations int, err error) {
	s, err := segment.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	rels, dict, err := s.Restore()
	if err != nil {
		return 0, err
	}
	c := server.NewCatalog()
	c.Restore(rels, dict)
	return c.Len(), nil
}

// countingFS wraps the real filesystem and counts what the store asks
// of the device: bytes written and fsyncs (file and directory).
type countingFS struct {
	faultfs.OS
	bytes  int64
	fsyncs int64
}

func (c *countingFS) OpenFile(path string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.fsyncs++
	return c.OS.SyncDir(dir)
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.fsyncs++
	return f.File.Sync()
}
