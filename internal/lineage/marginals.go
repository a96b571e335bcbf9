package lineage

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/tpset/tpset/internal/keys"
)

// The marginal-text table sits beside the variable arena: one slot per
// keys.VarID holding the text an encoder rendered for that variable's
// marginal probability, and the float64 bits the text is the rendering
// of. A base tuple's marginal is shipped with every output row whose
// lineage mentions it (§V: the client re-evaluates confidence from the
// formula and its marginals), and the table formats it once per
// variable instead of once per occurrence: a hit copies at most 20
// bytes, a fraction of what finding a float64's shortest round-trip
// digits costs even with the server's Schubfach kernel.
//
// Like the arena it is process-wide, append-only and keyed by id, so it
// outlives the relations that carried the variables: a relation
// replaced under the same ids and marginals keeps its hits. A slot is
// published once — empty → writing → ready, first writer wins — and
// never rewritten, so a reader that sees it ready reads it without a
// lock. A variable that occurs under a second marginal is simply not
// served from its slot: the bits differ and the caller formats as it
// would have without the table. Slots fill on the encode side only;
// building, ingesting and restoring leaves touch nothing here.

const (
	marginalChunkBits  = 10
	marginalChunkSlots = 1 << marginalChunkBits // 32 KiB per chunk
	marginalSlotBytes  = 32                     // TestMarginalSlotIs32Bytes

	slotEmpty   uint32 = 0
	slotWriting uint32 = 1
	slotReady   uint32 = 2 // state − slotReady is the length of the text
)

// marginalSlot is marginalSlotBytes long and pointer-free.
type marginalSlot struct {
	bits  uint64 // math.Float64bits of the marginal text renders
	state atomic.Uint32
	text  [20]byte // "0." and 17 digits: every shortest round-trip float64 in [0.1, 1] fits
}

type marginalChunk [marginalChunkSlots]marginalSlot

// marginals is the table: chunks never move once allocated, only the
// list of them is replaced when it grows.
var marginals struct {
	mu     sync.Mutex // serializes growth
	chunks atomic.Pointer[[]*marginalChunk]

	ready, hits, misses atomic.Uint64
}

// MarginalTexts is one encoder's snapshot of the marginal-text table:
// it serves every variable interned before SnapshotMarginalTexts
// returned it. Hits, misses and published slots are counted in the
// snapshot and reach the table's counters on Flush, so a lookup costs
// no shared write. A snapshot belongs to one goroutine; any number of
// snapshots may be in use at once.
type MarginalTexts struct {
	chunks              []*marginalChunk
	hits, misses, ready uint64
}

// SnapshotMarginalTexts returns a snapshot that covers the variable
// arena as of the call, growing the table — by whole zeroed chunks,
// which is all the memory it ever holds — when variables were interned
// since the last one.
func SnapshotMarginalTexts() MarginalTexts {
	need := (vars.Len() + marginalChunkSlots - 1) >> marginalChunkBits
	if cs := marginals.chunks.Load(); cs != nil && len(*cs) >= need {
		return MarginalTexts{chunks: *cs}
	}
	marginals.mu.Lock()
	defer marginals.mu.Unlock()
	var chunks []*marginalChunk
	if cs := marginals.chunks.Load(); cs != nil {
		chunks = *cs
	}
	if len(chunks) < need {
		// A fresh list: earlier snapshots keep theirs, both point at the
		// same chunks.
		grown := make([]*marginalChunk, need)
		for i := copy(grown, chunks); i < need; i++ {
			grown[i] = new(marginalChunk)
		}
		chunks = grown
		marginals.chunks.Store(&chunks)
	}
	return MarginalTexts{chunks: chunks}
}

func (m *MarginalTexts) slot(id keys.VarID) *marginalSlot {
	c := int(id >> marginalChunkBits)
	if c >= len(m.chunks) {
		return nil // interned after the snapshot
	}
	return &m.chunks[c][id&(marginalChunkSlots-1)]
}

// Append appends the text published for variable id and reports true,
// provided it was published for exactly the marginal p; otherwise it
// appends nothing and reports false, and the caller renders p itself
// (and may Offer the result).
func (m *MarginalTexts) Append(dst []byte, id keys.VarID, p float64) ([]byte, bool) {
	s := m.slot(id)
	if s == nil {
		m.misses++
		return dst, false
	}
	// The ready state is stored after bits and text are written; seeing
	// it orders the reads below after those writes.
	state := s.state.Load()
	if state < slotReady || s.bits != math.Float64bits(p) {
		m.misses++
		return dst, false
	}
	m.hits++
	return append(dst, s.text[:state-slotReady]...), true
}

// Offer publishes text as the rendering of variable id's marginal p,
// unless the slot is already taken (whatever it holds stays) or the
// text is longer than a slot. text is copied.
func (m *MarginalTexts) Offer(id keys.VarID, p float64, text []byte) {
	s := m.slot(id)
	// The load keeps a taken slot — a variable under a second marginal,
	// offered on every occurrence — from costing a locked instruction.
	if s == nil || len(text) > len(s.text) || s.state.Load() != slotEmpty || !s.state.CompareAndSwap(slotEmpty, slotWriting) {
		return
	}
	s.bits = math.Float64bits(p)
	copy(s.text[:], text)
	s.state.Store(slotReady + uint32(len(text)))
	m.ready++
}

// Flush adds the snapshot's counts to the table's and zeroes them. An
// encoder calls it once per batch or relation, not per tuple.
func (m *MarginalTexts) Flush() {
	marginals.hits.Add(m.hits)
	marginals.misses.Add(m.misses)
	marginals.ready.Add(m.ready)
	m.hits, m.misses, m.ready = 0, 0, 0
}

// MarginalTextStats describes the marginal-text table; it is part of
// the /metrics body.
type MarginalTextStats struct {
	Ready  uint64 `json:"ready"`  // slots that hold a published text
	Bytes  uint64 `json:"bytes"`  // memory held: 32 bytes per slot of every allocated chunk
	Hits   uint64 `json:"hits"`   // marginals appended from the table
	Misses uint64 `json:"misses"` // marginals the caller had to format
}

// ReadMarginalTextStats returns the table's counters as of the last
// Flush of every snapshot, and its current size.
func ReadMarginalTextStats() MarginalTextStats {
	st := MarginalTextStats{
		Ready:  marginals.ready.Load(),
		Hits:   marginals.hits.Load(),
		Misses: marginals.misses.Load(),
	}
	if cs := marginals.chunks.Load(); cs != nil {
		st.Bytes = uint64(len(*cs)) * marginalChunkSlots * marginalSlotBytes
	}
	return st
}
