package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/tpset/tpset/internal/invariant"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/relation"
)

// RelVersion identifies one observed catalog state of one relation.
type RelVersion struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

// Catalog is a versioned, concurrency-safe store of named TP relations.
//
// Versions are drawn from one catalog-wide monotonic counter: every Put
// and Drop bumps it, and a Put stamps the new counter value onto the
// entry. Distinct observable states of a relation therefore always carry
// distinct versions — even across a drop-and-reload of the same name —
// which is what the query-result cache keys on.
//
// Stored relations are treated as immutable; Put replaces the pointer.
// Callers receiving a *relation.Relation from the catalog must not mutate
// it.
//
// The catalog additionally maintains one catalog-wide fact dictionary:
// every stored relation is bound to it at admission, so any query over
// any subset of relations runs entirely on interned integer compares —
// the advancer, sorts and the engine's shard cuts never touch a key
// string. Admission of facts the dictionary has not seen
// rebuilds it and rebinds the other relations onto content-identical
// clones (admission-time cost, query-time benefit); in-flight snapshots
// keep their previous, mutually consistent pointers. The dictionary may
// be a superset of the facts currently stored — binding only requires
// presence, and order preservation is unaffected by unused keys — so
// drops never force a rebuild.
type Catalog struct {
	mu    sync.RWMutex
	rels  map[string]catEntry
	clock uint64
	dict  *keys.Dict
}

type catEntry struct {
	rel     *relation.Relation
	version uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: make(map[string]catEntry)}
}

// Put loads or replaces the relation under name, returning its new
// version and whether the name already existed (decided under the same
// write lock, so concurrent Puts report create-vs-replace consistently).
// Admission binds rel to the catalog-wide fact dictionary (rebuilding it
// when rel brings genuinely new facts), so the relation — including the
// caller's pointer — must not be mutated afterwards.
func (c *Catalog) Put(name string, rel *relation.Relation) (version uint64, existed bool) {
	version, existed, _ = c.PutRebound(name, rel)
	return version, existed
}

// PutRebound is Put exposing the admission side effect a durable store
// must mirror: when admission rebuilt the catalog dictionary, rebound
// maps every *other* stored relation name to the freshly rebound clone
// now installed in the catalog (nil on the fast path, where no sibling
// changed). A persistence layer rewrites those segments so the on-disk
// generation converges with memory; until it does, mixed on-disk
// generations are healed at restore (segment.Store.Restore).
func (c *Catalog) PutRebound(name string, rel *relation.Relation) (version uint64, existed bool, rebound map[string]*relation.Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rebound = c.admit(name, rel)
	_, existed = c.rels[name]
	c.clock++
	c.rels[name] = catEntry{rel: rel, version: c.clock}
	return c.clock, existed, rebound
}

// Restore seeds the catalog from a durable store's recovered state:
// every relation is installed under a fresh version and the recovered
// dictionary becomes the catalog dictionary, so subsequent admissions
// take the fast path whenever their facts are already known. Restored
// relations are typically frozen (mmap-backed); that is compatible with
// later dictionary rebuilds, which rebind via unfrozen clones. Call it
// once, on an empty catalog, before serving.
func (c *Catalog) Restore(rels map[string]*relation.Relation, dict *keys.Dict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic version assignment
	for _, name := range names {
		c.clock++
		c.rels[name] = catEntry{rel: rels[name], version: c.clock}
	}
	if dict != nil {
		c.dict = dict
	}
}

// admit binds rel to the catalog dictionary. Fast path: every fact of
// rel is already a dictionary key — bind and done. Slow path: rebuild
// the dictionary over the facts of rel plus all currently stored
// relations (which also prunes keys of dropped or replaced facts) and
// rebind every stored relation via a content-identical clone; versions
// are unchanged because the logical relation content is unchanged.
// Rebinding preserves sortedness: both dictionaries order ids by key.
//
// Binding is what builds a relation's fid column: query plans over the
// catalog run AssumeSorted, and a leaf that is sorted and on the catalog
// dictionary is scanned in place (core.PrepareLeaves).
//
// The returned map holds the rebound sibling clones of the slow path
// (nil when the fast path ran); see PutRebound.
func (c *Catalog) admit(name string, rel *relation.Relation) map[string]*relation.Relation {
	if invariant.Enabled {
		// Tagged builds re-prove the admission contract the mutation
		// paths establish (sorted, duplicate-free — the Algorithm 1–4
		// preconditions every AssumeSorted plan over the catalog leans
		// on) and, after the bind below, that the fid column names the
		// rows' facts.
		invariant.CheckSorted(rel, "server.Catalog.admit")
		invariant.CheckDuplicateFree(rel, "server.Catalog.admit")
		defer invariant.CheckColsMirror(rel, "server.Catalog.admit")
	}
	relKeys := factKeys(rel, nil)
	if c.dict != nil && c.dict.Contains(relKeys) {
		rel.Bind(c.dict)
		return nil
	}
	union := relKeys
	for other, e := range c.rels {
		if other == name {
			continue // being replaced; its facts need not survive
		}
		union = factKeys(e.rel, union)
	}
	dict := keys.BuildDict(union)
	rel.Bind(dict)
	var rebound map[string]*relation.Relation
	for other, e := range c.rels {
		if other == name {
			continue
		}
		clone := e.rel.Clone()
		clone.Bind(dict)
		c.rels[other] = catEntry{rel: clone, version: e.version}
		if rebound == nil {
			rebound = make(map[string]*relation.Relation)
		}
		rebound[other] = clone
	}
	c.dict = dict
	return rebound
}

// factKeys appends the fact keys of r to dst, skipping consecutive
// repeats — stored catalog relations are sorted, so this yields the
// distinct key set without a dedup map (BuildDict tolerates the
// remaining duplicates of unsorted input). A bound relation's keys are
// read from its dictionary, not recomputed.
func factKeys(r *relation.Relation, dst []string) []string {
	for i := range r.Tuples {
		k := r.KeyAt(i)
		if n := len(dst); n > 0 && dst[n-1] == k {
			continue
		}
		dst = append(dst, k)
	}
	return dst
}

// Checkpoint captures the catalog's relation table and dictionary so a
// mutation whose durable mirror fails can be rolled back (Rollback).
// The snapshot is consistent on its own, but it stays valid as a
// rollback target only while no other mutation lands between Checkpoint
// and Rollback — the server's mutGate provides exactly that
// serialization. Entries are copied by value; the relation pointers are
// shared, which is safe because stored relations are immutable.
type Checkpoint struct {
	rels map[string]catEntry
	dict *keys.Dict
}

// Checkpoint snapshots the current relation table and dictionary.
func (c *Catalog) Checkpoint() Checkpoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rels := make(map[string]catEntry, len(c.rels))
	for name, e := range c.rels {
		rels[name] = e
	}
	return Checkpoint{rels: rels, dict: c.dict}
}

// Rollback restores the relation table and dictionary captured by cp.
// The clock is deliberately NOT rolled back: versions are cache-key
// material, and re-issuing one after a rollback could alias a result
// cached against the rolled-back state. A post-rollback catalog is
// bitwise the pre-mutation catalog except for a gap in the version
// sequence, which nothing keys on.
func (c *Catalog) Rollback(cp Checkpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rels = cp.rels
	c.dict = cp.dict
}

// Get returns the relation under name and its version.
func (c *Catalog) Get(name string) (*relation.Relation, uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.rels[name]
	return e.rel, e.version, ok
}

// Drop removes the relation under name; it reports whether it existed.
// A successful drop bumps the catalog clock, so a later reload of the same
// name can never reuse a previously observed version.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.rels[name]; !ok {
		return false
	}
	c.clock++
	delete(c.rels, name)
	return true
}

// Len returns the number of stored relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
}

// Clock returns the current value of the catalog-wide version counter.
func (c *Catalog) Clock() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.clock
}

// List returns every stored relation's name and version, sorted by name.
func (c *Catalog) List() []RelVersion {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]RelVersion, 0, len(c.rels))
	for name, e := range c.rels {
		out = append(out, RelVersion{Name: name, Version: e.version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot resolves the named relations under one read lock, returning an
// evaluation database plus the version vector (sorted by name) that
// identifies the observed state. The single lock acquisition makes the
// snapshot atomic: a concurrent Put either fully precedes it (new pointer
// and version) or fully follows it (old pointer and version) — never a
// torn mix for one relation.
func (c *Catalog) Snapshot(names []string) (map[string]*relation.Relation, []RelVersion, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	db := make(map[string]*relation.Relation, len(names))
	versions := make([]RelVersion, 0, len(names))
	var missing []string
	for _, name := range names {
		e, ok := c.rels[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if _, dup := db[name]; dup {
			continue
		}
		db[name] = e.rel
		versions = append(versions, RelVersion{Name: name, Version: e.version})
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, nil, fmt.Errorf("unknown relation(s) %s", strings.Join(missing, ", "))
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i].Name < versions[j].Name })
	return db, versions, nil
}
