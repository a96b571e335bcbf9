package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
// Every mutation runs prepare → persist → install. Prepare does the
// admission work without publishing it; persist is the caller's durable
// mirror (the segment store's WAL append and fsync), and a failed persist
// returns before anything is installed, so there is nothing to undo;
// install is one short write-locked swap of the entries, the dictionary
// and the clock. Nothing is visible before it is durable. Writers are
// serialized across all three steps (write), so persist order is version
// order; readers take only mu, which no writer holds during prepare or
// persist.
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
	write sync.Mutex   // serializes writers; held across prepare → persist → install
	mu    sync.RWMutex // guards the fields below; written only by install
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
// version and whether the name already existed. Admission binds rel to
// the catalog-wide fact dictionary (rebuilding it when rel brings
// genuinely new facts), so the relation — including the caller's pointer
// — must not be mutated afterwards.
//
// persist, when non-nil, runs after admission is prepared and before it
// is installed, with the rebound sibling clones of a dictionary rebuild
// (nil when no sibling changed): a durable store writes rel and rewrites
// those segments. A persist error is returned as it is and leaves the
// catalog untouched. persist runs while the catalog's writers wait, so
// it may read the catalog but must not mutate it.
func (c *Catalog) Put(name string, rel *relation.Relation, persist func(rebound map[string]*relation.Relation) error) (version uint64, existed bool, err error) {
	c.write.Lock()
	defer c.write.Unlock()
	dict, rebound := c.admit(name, rel)
	if persist != nil {
		if err := persist(rebound); err != nil {
			return 0, false, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for other, clone := range rebound {
		c.rels[other] = catEntry{rel: clone, version: c.rels[other].version}
	}
	_, existed = c.rels[name]
	c.clock++
	c.rels[name] = catEntry{rel: rel, version: c.clock}
	c.dict = dict
	return c.clock, existed, nil
}

// PutRebound is Put without a persist step, exposing the admission side
// effect a durable store must mirror: rebound maps every *other* stored
// relation name to the freshly rebound clone now installed (nil on the
// fast path, where no sibling changed).
func (c *Catalog) PutRebound(name string, rel *relation.Relation) (version uint64, existed bool, rebound map[string]*relation.Relation) {
	version, existed, _ = c.Put(name, rel, func(rb map[string]*relation.Relation) error {
		rebound = rb
		return nil
	})
	return version, existed, rebound
}

// Restore seeds the catalog from a durable store's recovered state:
// every relation is installed under a fresh version and the recovered
// dictionary becomes the catalog dictionary, so subsequent admissions
// take the fast path whenever their facts are already known. Restored
// relations are frozen, as every catalog relation is immutable; that is
// compatible with later dictionary rebuilds, which rebind via unfrozen
// clones. Call it once, on an empty catalog, before serving.
func (c *Catalog) Restore(rels map[string]*relation.Relation, dict *keys.Dict) {
	c.write.Lock()
	defer c.write.Unlock()
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

// admit is Put's prepare step: it binds rel to the dictionary the
// install will publish and returns that dictionary. Fast path: every
// fact of rel is already a key of the catalog dictionary — bind and
// done. Slow path: build a dictionary over the facts of rel plus all
// currently stored relations (which also prunes keys of dropped or
// replaced facts) and rebind every other stored relation via a
// content-identical clone, returned in rebound; their versions are
// unchanged at install because the logical content is unchanged.
// Rebinding preserves sortedness: both dictionaries order ids by key.
// The caller holds write, so the stored entries cannot change
// underneath; nothing here takes mu.
//
// Binding is what builds a relation's fid column: query plans over the
// catalog run AssumeSorted, and a leaf that is sorted and on the catalog
// dictionary is scanned in place (core.PrepareLeaves).
func (c *Catalog) admit(name string, rel *relation.Relation) (*keys.Dict, map[string]*relation.Relation) {
	relKeys := factKeys(rel, nil)
	if c.dict != nil && c.dict.Contains(relKeys) {
		rel.Bind(c.dict)
		return c.dict, nil
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
		if rebound == nil {
			rebound = make(map[string]*relation.Relation)
		}
		rebound[other] = clone
	}
	return dict, rebound
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

// Get returns the relation under name and its version.
func (c *Catalog) Get(name string) (*relation.Relation, uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.rels[name]
	return e.rel, e.version, ok
}

// Drop removes the relation under name; it reports whether it existed.
// A successful drop bumps the catalog clock, so a later reload of the same
// name can never reuse a previously observed version. persist, when
// non-nil, runs between the existence check and the removal; its error
// is returned as it is, with the relation still stored.
func (c *Catalog) Drop(name string, persist func() error) (existed bool, err error) {
	c.write.Lock()
	defer c.write.Unlock()
	if _, ok := c.rels[name]; !ok {
		return false, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return true, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	delete(c.rels, name)
	return true, nil
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
