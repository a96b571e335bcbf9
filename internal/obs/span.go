package obs

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Span is one node of a per-query execution trace: the live, writable
// counterpart of SpanStats. Operators record into their span while the
// query runs; Snapshot freezes the whole tree afterwards.
//
// Counters are atomics because a span tree is written concurrently: the
// engine's shard plans record from dedicated goroutines, and the
// consumer may snapshot after abandoning the stream early, while
// producers are still draining. Within one span each counter is still
// single-writer in practice; atomics make the cross-goroutine snapshot
// race-free without a lock on the hot path.
//
// The children slice is built while the plan is compiled (single
// goroutine, before any execution) and only read afterwards, so it
// needs no synchronization.
type Span struct {
	op       string
	children []*Span

	tuples  atomic.Int64 // tuples emitted by this operator
	batches atomic.Int64 // batches emitted (0 on pure tuple pulls)
	windows atomic.Int64 // advancer candidate windows popped (set ops)
	gallops atomic.Int64 // run-skip gallops taken (SkipTo calls: past facts, or past a stretch of one fact's time)
	wall    atomic.Int64 // inclusive wall nanoseconds across pulls
	stall   atomic.Int64 // nanoseconds blocked on channel send/receive
}

// NewSpan returns a root span labeled op (may be empty; plan
// compilation labels spans as it assigns them to operators).
func NewSpan(op string) *Span { return &Span{op: op} }

// NewChild appends and returns a child span. Must only be called during
// plan compilation, before execution starts.
func (s *Span) NewChild(op string) *Span {
	c := &Span{op: op}
	s.children = append(s.children, c)
	return c
}

// SetOp labels the span with its operator. Plan-compilation time only.
func (s *Span) SetOp(op string) { s.op = op }

// PrefixOp prepends a label fragment (the engine tags shard subtrees
// with their shard index). Plan-compilation time only.
func (s *Span) PrefixOp(p string) { s.op = p + s.op }

// Op returns the operator label.
func (s *Span) Op() string { return s.op }

// AddTuples records n tuples emitted.
func (s *Span) AddTuples(n int64) { s.tuples.Add(n) }

// AddBatches records n batches emitted.
func (s *Span) AddBatches(n int64) { s.batches.Add(n) }

// SetWindows overwrites the windows-popped counter (the advancer counts
// locally; the traced cursor publishes after each pull).
func (s *Span) SetWindows(n int64) { s.windows.Store(n) }

// SetGallops overwrites the gallops-taken counter.
func (s *Span) SetGallops(n int64) { s.gallops.Store(n) }

// AddGallops records n run-skip gallops received (scans count the
// SkipTo calls that reach them).
func (s *Span) AddGallops(n int64) { s.gallops.Add(n) }

// AddWall records inclusive wall time spent inside a pull.
func (s *Span) AddWall(d time.Duration) { s.wall.Add(int64(d)) }

// AddStall records time spent blocked on a channel operation.
func (s *Span) AddStall(d time.Duration) { s.stall.Add(int64(d)) }

// Tuples returns the tuples-emitted counter.
func (s *Span) Tuples() int64 { return s.tuples.Load() }

// SpanStats is the frozen, JSON-serializable form of a Span — one node
// of the per-operator stats tree returned by the query endpoints.
// Counts are exact: TuplesOut of an operator node equals the number of
// tuples the operator actually emitted, and TuplesIn the sum of its
// children's TuplesOut. Wall time is inclusive of children (the span
// measures its pulls, which pull the children in turn); SelfMicros is
// the derived exclusive share, clamped at zero.
type SpanStats struct {
	Op          string       `json:"op"`
	TuplesIn    int64        `json:"tuplesIn"`
	TuplesOut   int64        `json:"tuplesOut"`
	Batches     int64        `json:"batches,omitempty"`
	Windows     int64        `json:"windows,omitempty"`
	Gallops     int64        `json:"gallops,omitempty"`
	WallMicros  int64        `json:"wallMicros"`
	SelfMicros  int64        `json:"selfMicros"`
	StallMicros int64        `json:"stallMicros,omitempty"`
	Children    []*SpanStats `json:"children,omitempty"`
}

// Snapshot freezes the span tree into SpanStats. Safe to call while
// producers are still recording (each counter is read atomically); the
// numbers are then a consistent-enough point-in-time view, and exact
// once the stream is drained or closed.
func (s *Span) Snapshot() *SpanStats {
	st := &SpanStats{
		Op:          s.op,
		TuplesOut:   s.tuples.Load(),
		Batches:     s.batches.Load(),
		Windows:     s.windows.Load(),
		Gallops:     s.gallops.Load(),
		WallMicros:  s.wall.Load() / int64(time.Microsecond),
		StallMicros: s.stall.Load() / int64(time.Microsecond),
	}
	var childWall int64
	for _, c := range s.children {
		cs := c.Snapshot()
		st.TuplesIn += cs.TuplesOut
		childWall += cs.WallMicros
		st.Children = append(st.Children, cs)
	}
	if st.SelfMicros = st.WallMicros - childWall; st.SelfMicros < 0 {
		st.SelfMicros = 0
	}
	return st
}

// WriteIndented renders the stats tree human-readably, one operator per
// line, indented by plan depth — the tpquery -trace output.
func (st *SpanStats) WriteIndented(w io.Writer) {
	st.writeIndented(w, 0)
}

func (st *SpanStats) writeIndented(w io.Writer, depth int) {
	fmt.Fprintf(w, "%-*s%-*s out=%-8d in=%-8d wall=%-10s self=%-10s",
		2*depth, "", 32-2*depth, st.Op, st.TuplesOut, st.TuplesIn,
		microsString(st.WallMicros), microsString(st.SelfMicros))
	if st.Batches > 0 {
		fmt.Fprintf(w, " batches=%d", st.Batches)
	}
	if st.Windows > 0 {
		fmt.Fprintf(w, " windows=%d", st.Windows)
	}
	if st.Gallops > 0 {
		fmt.Fprintf(w, " gallops=%d", st.Gallops)
	}
	if st.StallMicros > 0 {
		fmt.Fprintf(w, " stall=%s", microsString(st.StallMicros))
	}
	fmt.Fprintln(w)
	for _, c := range st.Children {
		c.writeIndented(w, depth+1)
	}
}

// microsString renders a microsecond count as a duration string.
func microsString(us int64) string {
	d := time.Duration(us) * time.Microsecond
	s := d.String()
	// Trim sub-microsecond zero noise Duration.String never produces
	// here; keep as-is otherwise.
	return strings.TrimSuffix(s, ".0s")
}
