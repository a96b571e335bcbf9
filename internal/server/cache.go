package server

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// CacheKey builds the result-cache key for a query: the canonical query
// string (query.Canonical of the optimized tree, plus any evaluation flags
// that change the result payload) joined with the sorted version vector of
// its input relations. Because every catalog mutation bumps versions, a
// key is valid forever: it can only ever map to the one result computed
// from exactly that catalog state.
func CacheKey(canonical string, versions []RelVersion) string {
	var b strings.Builder
	b.WriteString(canonical)
	b.WriteByte('\x00')
	for i, v := range versions {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%d", v.Name, v.Version)
	}
	return b.String()
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Bytes is the sum of the resident bodies' lengths.
	Bytes         int64  `json:"bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// Cache is a bounded LRU map from cache keys to query results. A result
// is its body: the encoded wire bytes of the result object (see
// wireEncoder.relationHead), which a hit writes as they are. Entries
// remember which relations they were computed from, so a catalog mutation
// can invalidate exactly its dependents (InvalidateRelation) — version-
// stamped keys already guarantee stale entries are never *hit*, eager
// invalidation additionally frees their memory immediately instead of
// waiting for LRU pressure.
//
// A Cache is safe for concurrent use. A capacity below one disables
// caching entirely: Get always misses and Put is a no-op. Bodies are
// shared with the callers of Get and must not be modified.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64 // sum of len(body) over the entries

	hits, misses, evictions, invalidations uint64
}

type cacheEntry struct {
	key    string
	deps   []string // relation names the result was computed from
	body   []byte
	tuples int // in body
}

// NewCache returns a cache bounded to capacity entries (< 1 disables).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached body under key and the number of tuples in it,
// refreshing its recency.
func (c *Cache) Get(key string) (body []byte, tuples int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.body, e.tuples, true
}

// Put stores a body of the given number of tuples under key, recording
// the relation names it depends on, and evicts the least recently used
// entries beyond capacity. The cache keeps body itself, not a copy. A
// put on an already-present key (concurrent evaluations of the same
// query racing past the same cache miss) updates the entry in place —
// body, dependency set and recency — without growing the list or the
// map, so Entries never double-counts and no list element leaks.
func (c *Cache) Put(key string, deps []string, body []byte, tuples int) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body) - len(e.body))
		e.body, e.tuples = body, tuples
		e.deps = deps
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, deps: deps, body: body, tuples: tuples})
	c.bytes += int64(len(body))
	for c.ll.Len() > c.cap {
		c.remove(c.ll.Back())
		c.evictions++
	}
}

// remove drops one entry; c.mu is held.
func (c *Cache) remove(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.body))
}

// InvalidateRelation drops every entry whose result was computed from the
// named relation and returns how many were dropped. Entries over other
// relations are untouched.
func (c *Cache) InvalidateRelation(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		for _, dep := range e.deps {
			if dep == name {
				c.remove(el)
				c.invalidations++
				dropped++
				break
			}
		}
		el = next
	}
	return dropped
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       c.ll.Len(),
		Capacity:      c.cap,
		Bytes:         c.bytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
