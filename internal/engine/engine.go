package engine

import (
	"runtime"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// DefaultMinPartitionSize is the smallest average shard size worth the
// partitioning and goroutine overhead; inputs that cannot fill at least
// two shards of this size run the sequential cursor plan.
const DefaultMinPartitionSize = 2048

// shardsPerWorker over-partitions relative to the worker count so that
// skewed fact-size distributions still balance: a worker that draws a
// heavy shard is compensated by others draining the light ones.
const shardsPerWorker = 4

// DefaultMinColsRows is the smallest shard partition worth projecting
// into columns. The projection is an O(rows) pass allocating five
// arrays per partition per query; its payoff — packed int64 compares
// touching one cache line per eight tuples instead of a ~100-byte
// struct stride — only materializes once the partition outgrows the
// cache levels that make the struct walk free. Below the threshold the
// shard sweeps read keys through the tuple structs (interned compares
// are integer compares either way), and operator output batches still
// come out columnar for the encoder's read side, so serving loses
// nothing.
const DefaultMinColsRows = 16 << 10

// Config tunes the engine.
type Config struct {
	// Workers bounds the number of concurrently executing shard tasks.
	// Values below one select runtime.GOMAXPROCS(0).
	Workers int
	// MinPartitionSize is the minimum average number of input tuples per
	// shard; it throttles the shard count for small inputs and forces the
	// sequential path when the input cannot fill two shards. Values below
	// one select DefaultMinPartitionSize.
	MinPartitionSize int
	// MinColsRows is the minimum partition size worth the columnar
	// projection pass; smaller partitions sweep on the tuple structs. Values
	// below one select DefaultMinColsRows (tests force 1 to pin the
	// columnar shard path on small inputs).
	MinColsRows int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) minPartitionSize() int {
	if c.MinPartitionSize > 0 {
		return c.MinPartitionSize
	}
	return DefaultMinPartitionSize
}

func (c Config) minColsRows() int {
	if c.MinColsRows > 0 {
		return c.MinColsRows
	}
	return DefaultMinColsRows
}

// Engine executes TP set operations and query trees with partition
// parallelism. It is a value of its configuration: it holds no pool, no
// goroutine and no other state between calls, so an Engine is safe for
// concurrent use and free to construct per request. The parallelism of
// one plan is bounded by its shard count, which shardCount sizes from
// Config.Workers.
type Engine struct {
	cfg Config
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Apply computes op(r, s) as the two-leaf plan "r op s" on the engine's
// one execution path (EvalCursor): sequential below the partitioning
// threshold, sharded above it. The result is tuple-for-tuple identical
// to core.Apply(op, r, s, opts), in the same canonical (fact, Ts) order
// and under the same output schema.
func (e *Engine) Apply(op core.Op, r, s *relation.Relation, opts core.Options) (*relation.Relation, error) {
	plan := &query.SetOp{Op: op, Left: &query.Rel{Name: "r"}, Right: &query.Rel{Name: "s"}}
	return e.EvalCursor(plan, map[string]*relation.Relation{"r": r, "s": s}, opts)
}

// shardCount picks the number of shards for an input of total tuples:
// enough to keep every worker busy with slack for skew, but never so many
// that the average shard drops below the minimum partition size. A count
// below two means the input is not worth partitioning.
func (e *Engine) shardCount(total int) int {
	workers := e.cfg.workers()
	if workers <= 1 {
		return 1
	}
	shards := workers * shardsPerWorker
	if max := total / e.cfg.minPartitionSize(); shards > max {
		shards = max
	}
	return shards
}

// partition splits r into shards by fact hash. Every tuple of a fact
// lands in one shard, so fact groups stay whole, and the per-shard tuple
// order preserves the input order (a stable distribution: a sorted input
// yields sorted shards). With byID the hash is an integer mix of the
// interned FactID; the caller guarantees both inputs of the operation
// share one dictionary, so the shard assignment stays fact-aligned
// across relations.
//
// On the string path, fact keys are recomputed from the fact values
// rather than read through Tuple.Key, which lazily caches into the
// tuple — a write that would race when concurrent operations share an
// input relation (InternedID reads are race-free).
func partition(r *relation.Relation, shards int, byID bool) []*relation.Relation {
	parts := make([]*relation.Relation, shards)
	for i := range parts {
		parts[i] = relation.New(r.Schema)
	}
	// Pre-size by an even split to avoid repeated growth; skewed shards
	// re-grow as needed.
	per := r.Len()/shards + 1
	for i := range parts {
		parts[i].Tuples = make([]relation.Tuple, 0, per)
	}
	for i := range r.Tuples {
		t := &r.Tuples[i]
		var h uint32
		if byID {
			id, _ := t.InternedID()
			h = uint32(keys.Mix64(uint64(id)))
		} else {
			h = fnv32a(t.Fact.Key())
		}
		p := parts[h%uint32(shards)]
		p.Tuples = append(p.Tuples, *t)
	}
	for i := range parts {
		parts[i].AdoptBinding()
	}
	return parts
}

// fnv32a is FNV-1a over the key string, inlined to keep the per-tuple
// partition loop allocation-free (hash/fnv would heap-allocate a hasher
// and a byte-slice copy per tuple).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
