package query

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// Cursor plan building: a query tree compiles into a tree of core.Cursor
// values — relation scans at the leaves, selection filters and streaming
// set-operation cursors above them — that evaluates the whole query in
// O(tree depth) additional memory. The advancer of every set operation
// pulls directly from its children's streams; no node materializes an
// intermediate relation. BuildCursor is the one function in the module
// that walks a query tree to execute it: the engine runs its plans
// (whole, or one per fact shard), and every other entry point runs the
// engine.

// BuildCursor compiles the query into a streaming cursor plan over the
// named relations in db. All plan errors (unknown relation, incompatible
// schemas, unknown attribute) surface here, at build time: cursors
// themselves cannot fail. Options apply to every set operation of the
// tree, except that LazyProb governs the root alone (an operator feeding
// another leaves Prob unvaluated whatever the caller chose: nothing
// reads it); AssumeSorted and Validate refer to the db's leaf relations and
// are discharged once per plan (PrepareLeaves) — streams themselves are
// always sorted: every cursor yields canonical order.
//
// When opts.Span is set, the plan is built traced: the span is labeled
// with this node's operator, one child span is hung under it per
// sub-plan, and every node is built with its span and records its own
// pulls and skips into it. The traced plan's output is bit-identical to
// the untraced one. With a nil Span every node carries a nil span.
func BuildCursor(n Node, db map[string]*relation.Relation, opts core.Options) (core.Cursor, error) {
	db, err := PrepareLeaves(n, db, opts, 1)
	if err != nil {
		return nil, err
	}
	return BuildPrepared(n, db, opts)
}

func lookup(db map[string]*relation.Relation, name string) (*relation.Relation, error) {
	r, ok := db[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown relation %q (have %s)",
			name, strings.Join(DBKeys(db), ", "))
	}
	return r, nil
}

// PrepareLeaves resolves the relations the plan's scans read — each
// referenced name once, however often the query repeats it — and runs
// them through core.PrepareLeaves (validated, sorted, bound to one
// dictionary, on up to workers goroutines); the
// result is the database BuildPrepared reads. The engine calls it once
// per plan, before it cuts the prepared leaves into shards. A leaf read
// only through selections goes with their filter, so that a copy of it
// holds only the rows some selection directly over it keeps.
func PrepareLeaves(n Node, db map[string]*relation.Relation, opts core.Options, workers int) (map[string]*relation.Relation, error) {
	names := Relations(n)
	rels := make([]*relation.Relation, len(names))
	var keep []func(*relation.Tuple) bool // made on the first leaf read only through selections
	sels := make(map[string][]*Select)
	leafSelections(n, nil, sels)
	for i, name := range names {
		r, err := lookup(db, name)
		if err != nil {
			return nil, err
		}
		rels[i] = r
		if s := sels[name]; !slices.Contains(s, nil) {
			if keep == nil {
				keep = make([]func(*relation.Tuple) bool, len(names))
			}
			keep[i] = selects(r.Schema, s)
		}
	}
	rels, err := core.PrepareLeaves(rels, keep, opts, workers)
	if err != nil {
		return nil, err
	}
	leaves := make(map[string]*relation.Relation, len(names))
	for i, name := range names {
		leaves[name] = rels[i]
	}
	return leaves, nil
}

// selects returns the filter that passes a tuple of schema's relation
// when one of the selections keeps it; a selection of an attribute the
// schema lacks keeps nothing (the plan reports it when it is built).
func selects(schema relation.Schema, sels []*Select) func(*relation.Tuple) bool {
	at := make([]int, len(sels))
	for k, sel := range sels {
		at[k] = slices.Index(schema.Attrs, sel.Attr)
	}
	return func(t *relation.Tuple) bool {
		for k, sel := range sels {
			if at[k] >= 0 && at[k] < len(t.Fact) && t.Fact[at[k]] == sel.Value {
				return true
			}
		}
		return false
	}
}

// leafSelections appends to sels[name] the selection directly over each
// occurrence of the relation in n, nil for a bare one.
func leafSelections(n Node, over *Select, sels map[string][]*Select) {
	switch q := n.(type) {
	case *Rel:
		sels[q.Name] = append(sels[q.Name], over)
	case *Select:
		leafSelections(q.Input, q, sels)
	case *SetOp:
		leafSelections(q.Left, nil, sels)
		leafSelections(q.Right, nil, sels)
	}
}

// BuildPrepared is BuildCursor over a database PrepareLeaves returned,
// or fact-range views of one: the engine builds one plan per shard with
// it. The root's schema carries the result's name (ResultName), built
// once; operators inside the plan are unnamed.
func BuildPrepared(n Node, db map[string]*relation.Relation, opts core.Options) (core.Cursor, error) {
	return build(n, db, opts, ResultName(n, db))
}

// ResultName is the name of the relation n evaluates to over db: a leaf's
// schema name, a selection's input's, and for a set operation the left
// name, the operation's symbol and the right name, concatenated. It is
// written by one builder, where naming every operator after its children
// would copy a chain's names once per level (O(n²) bytes). A leaf db does
// not hold is named by its identifier.
func ResultName(n Node, db map[string]*relation.Relation) string {
	var b strings.Builder
	resultName(n, db, &b)
	return b.String()
}

func resultName(n Node, db map[string]*relation.Relation, b *strings.Builder) {
	switch q := n.(type) {
	case *Rel:
		if r, ok := db[q.Name]; ok {
			b.WriteString(r.Schema.Name)
		} else {
			b.WriteString(q.Name)
		}
	case *Select:
		resultName(q.Input, db, b)
	case *SetOp:
		resultName(q.Left, db, b)
		b.WriteString(q.Op.String())
		resultName(q.Right, db, b)
	}
}

// build compiles n. name is the schema name of n's output: the result's
// for the root and a selection chain over it, "" for an operator below
// another.
func build(n Node, db map[string]*relation.Relation, opts core.Options, name string) (core.Cursor, error) {
	sp := opts.Span
	switch q := n.(type) {
	case *Rel:
		r, err := lookup(db, q.Name)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			sp.SetOp("scan(" + q.Name + ")")
		}
		return core.NewScanCursor(r, sp), nil
	case *Select:
		childOpts := opts
		if sp != nil {
			childOpts.Span = sp.NewChild("")
		}
		in, err := build(q.Input, db, childOpts, name)
		if err != nil {
			return nil, err
		}
		schema := in.Schema()
		idx := -1
		for i, a := range schema.Attrs {
			if a == q.Attr {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("query: relation %q has no attribute %q (have %s)",
				ResultName(q.Input, db), q.Attr, strings.Join(schema.Attrs, ", "))
		}
		if sp != nil {
			sp.SetOp(fmt.Sprintf("σ[%s=%s]", q.Attr, q.Value))
		}
		return &selectCursor{in: in, idx: idx, value: q.Value, sp: sp}, nil
	case *SetOp:
		// The advancer above reads a child row's fact, interval and
		// lineage, never its probability: only the root valuates.
		lOpts, rOpts := opts, opts
		lOpts.LazyProb, rOpts.LazyProb = true, true
		if sp != nil {
			lOpts.Span = sp.NewChild("")
			rOpts.Span = sp.NewChild("")
		}
		l, err := build(q.Left, db, lOpts, "")
		if err != nil {
			return nil, err
		}
		r, err := build(q.Right, db, rOpts, "")
		if err != nil {
			return nil, err
		}
		oc, err := core.NewOpCursor(q.Op, name, l, r, opts)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", ResultName(q, db), err)
		}
		if sp != nil {
			sp.SetOp(q.Op.String())
		}
		return oc, nil
	}
	return nil, fmt.Errorf("query: unknown node type %T", n)
}

// selectCursor streams σ[Attr=Value] over its input. Filtering preserves
// order and duplicate-freeness, so the cursor ordering invariant holds
// trivially. Input blocks are filtered into the output batch (matches
// copied out, so downstream owns its tuples), and SkipTo forwards
// run-skipping to the input — a selection commutes with skipping because
// it only ever drops tuples, and what it keeps of a duplicate-free
// stream is duplicate-free.
type selectCursor struct {
	in    core.Cursor
	idx   int
	value string
	sp    *obs.Span // the selection's trace node, nil when untraced

	// buf/bi buffer the current input block: a pooled block taken at the
	// first pull and handed back (buf nil again) when the input is
	// exhausted or the plan released — done says which nil it is.
	buf  *core.Batch
	bi   int
	done bool
}

func (c *selectCursor) Schema() relation.Schema { return c.in.Schema() }

// ReleaseCursor hands the buffered input block back to the pool and
// forwards the teardown to the input plan.
func (c *selectCursor) ReleaseCursor() {
	c.end()
	core.ReleaseCursor(c.in)
}

// end marks the input exhausted and hands the pooled block back.
func (c *selectCursor) end() {
	c.done = true
	if c.buf != nil {
		core.PutBatch(c.buf)
		c.buf = nil
	}
}

// NextBatch filters input blocks into b until b is full or the input is
// exhausted.
func (c *selectCursor) NextBatch(b *core.Batch) bool {
	var start time.Time
	if c.sp != nil {
		start = time.Now()
	}
	b.Reset()
	if c.buf == nil && !c.done {
		c.buf = core.GetBatch()
	}
	for !c.done && len(b.Tuples) < b.Cap() {
		if c.bi >= len(c.buf.Tuples) {
			if !c.in.NextBatch(c.buf) {
				c.end()
				break
			}
			c.bi = 0
		}
		t := &c.buf.Tuples[c.bi]
		if c.idx < len(t.Fact) && t.Fact[c.idx] == c.value {
			b.Append(*t, c.buf.Fid[c.bi])
			b.Dict = c.buf.Dict
		}
		c.bi++
	}
	c.sp.Pull(start, len(b.Tuples))
	return len(b.Tuples) > 0
}

// SkipTo discards buffered and upcoming input tuples below the point
// (fid, te) — a smaller fact id, or fid itself ending at or before te —
// galloping over the buffered block and delegating the rest to a
// skip-capable input (scans; nested selections). Every skip that
// reaches the selection counts in its trace.
func (c *selectCursor) SkipTo(fid int64, te interval.Time) {
	c.sp.AddGallops(1)
	if c.buf != nil && c.bi < len(c.buf.Tuples) {
		c.bi += relation.SkipTo(c.buf.Fid[c.bi:], c.buf.Tuples[c.bi:], fid, te)
		if c.bi < len(c.buf.Tuples) {
			return
		}
	}
	if sk, ok := c.in.(interface{ SkipTo(int64, interval.Time) }); ok {
		sk.SkipTo(fid, te)
	}
}
