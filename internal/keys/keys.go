package keys

import (
	"sort"
	"strings"
	"sync"
)

// FactID is the dense interned identifier of a fact key within one Dict.
// IDs are ranks over the sorted key set, so for two ids of the same
// dictionary id(a) < id(b) ⇔ key(a) < key(b): comparing FactIDs is
// comparing fact keys.
type FactID uint64

// Dict is an immutable, order-preserving fact dictionary: every distinct
// fact key maps to its rank in the sorted key set. Because the mapping is
// monotone, the canonical tuple order (fact key, Ts, Te) collapses to a
// three-integer compare (FactID, Ts, Te) for tuples interned against the
// same Dict, and a range of ids is a range of facts — the properties the
// sort, the advancer and the engine's fact-range shard cuts rely on.
//
// A Dict is built once over a closed key set (ingest, catalog admission,
// operator prepare) and never mutated, so it is safe for concurrent use
// without locking. Growing the key set means building a new Dict; a Dict
// covering a superset of the keys actually present stays valid (binding
// only requires presence, and monotonicity is unaffected by unused keys).
type Dict struct {
	ids  map[string]FactID
	keys []string // rank → key, sorted ascending
}

// BuildDict returns the dictionary over the given keys (duplicates are
// fine; the input slice is not retained or modified). Only the distinct
// keys are sorted: a key that repeats its predecessor — every row but the
// first of a fact's run — is skipped with one compare, the rest are
// deduplicated through the id map, and the distinct keys are sorted and
// numbered last. Input whose keys are nearly all distinct gains nothing
// and pays for the map's growth and the numbering pass: ≈1.7× the
// sort-everything construction on 200K distinct keys.
func BuildDict(ks []string) *Dict {
	ids := make(map[string]FactID)
	var distinct []string
	for i, k := range ks {
		if i > 0 && k == ks[i-1] {
			continue
		}
		if _, seen := ids[k]; !seen {
			ids[k] = 0
			distinct = append(distinct, k)
		}
	}
	sort.Strings(distinct)
	for i, k := range distinct {
		ids[k] = FactID(i)
	}
	return &Dict{ids: ids, keys: distinct}
}

// ID returns the id of key and whether the dictionary contains it.
func (d *Dict) ID(key string) (FactID, bool) {
	id, ok := d.ids[key]
	return id, ok
}

// Key returns the fact key of id. It panics on an id that is not a rank
// of this dictionary — ids are only meaningful against the Dict that
// assigned them.
func (d *Dict) Key(id FactID) string { return d.keys[id] }

// Len returns the number of distinct keys.
func (d *Dict) Len() int { return len(d.keys) }

// Keys returns the sorted key set. The returned slice is shared and must
// not be modified.
func (d *Dict) Keys() []string { return d.keys }

// Contains reports whether every key of ks is in the dictionary.
func (d *Dict) Contains(ks []string) bool {
	for _, k := range ks {
		if _, ok := d.ids[k]; !ok {
			return false
		}
	}
	return true
}

// VarID is the interned identifier of a lineage variable name. Unlike
// FactID it carries no ordering semantics — lineage variables are only
// ever compared for equality (one-occurrence checks, Shannon expansion
// assignments) — so ids are assigned in first-come order and the arena
// can grow forever without invalidating earlier ids.
type VarID uint32

// Interner is a concurrency-safe append-only intern arena for lineage
// variable names: the same name always yields the same VarID, and names
// are recovered by index for rendering. Lookups after warm-up take the
// read lock only.
type Interner struct {
	mu    sync.RWMutex
	ids   map[string]VarID
	names []string
}

// NewInterner returns an empty arena.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]VarID)}
}

// Intern returns the id of name, assigning the next id on first sight.
// The arena owns its names: a novel name is copied in, so callers may
// pass transient views (e.g. strings aliasing a read buffer).
func (in *Interner) Intern(name string) VarID {
	in.mu.RLock()
	id, ok := in.ids[name]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.internLocked(name)
}

func (in *Interner) internLocked(name string) VarID {
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := VarID(len(in.names))
	name = strings.Clone(name)
	in.ids[name] = id
	in.names = append(in.names, name)
	return id
}

// InternAll interns every name in one arena transaction and returns the
// ids positionally. Equivalent to calling Intern per name, but takes the
// write lock once — the decode side of segment restore interns tens of
// thousands of variable names back-to-back, where per-call lock traffic
// would dominate. Like Intern, novel names are copied into the arena.
func (in *Interner) InternAll(names []string) []VarID {
	ids := make([]VarID, len(names))
	in.mu.Lock()
	defer in.mu.Unlock()
	// When the batch dominates the arena — a segment's worth of novel
	// names landing in one restore — rebuild the index presized for the
	// union instead of paying incremental rehash growth per insert.
	if len(names) > len(in.ids) {
		m := make(map[string]VarID, len(in.ids)+len(names))
		for k, v := range in.ids {
			m[k] = v
		}
		in.ids = m
	}
	for i, name := range names {
		ids[i] = in.internLocked(name)
	}
	return ids
}

// Lookup returns the id of name without interning it.
func (in *Interner) Lookup(name string) (VarID, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.ids[name]
	return id, ok
}

// Name returns the name interned as id.
func (in *Interner) Name(id VarID) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.names[id]
}

// Names returns the id → name table as of the call: names[id] is valid
// for every id assigned before it. The arena is append-only — a slot,
// once written under the write lock, is never rewritten, and growth
// either fills capacity beyond the returned length or moves to a new
// array — so the snapshot is indexed without the lock: one RLock
// round-trip resolves every leaf of a formula instead of one per leaf.
// The slice is shared and must not be modified.
func (in *Interner) Names() []string {
	in.mu.RLock()
	names := in.names
	in.mu.RUnlock()
	return names
}

// Len returns the number of interned names.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.names)
}
