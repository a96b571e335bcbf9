package engine

import (
	"runtime"
	"sort"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// DefaultMinPartitionSize is the smallest average shard size worth the
// goroutine and channel overhead; inputs that cannot fill at least
// two shards of this size run the sequential cursor plan.
const DefaultMinPartitionSize = 2048

// shardsPerWorker over-partitions relative to the worker count: cuts fall
// on fact edges, so a heavy fact makes its shard heavy, and a worker that
// draws it is compensated by the others claiming the light ones.
const shardsPerWorker = 4

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

// Engine executes TP set operations and query trees with fact-range
// parallelism. It is a value of its configuration: it holds no pool, no
// goroutine and no other state between calls, so an Engine is safe for
// concurrent use and free to construct per request. One plan runs at most
// Config.Workers shard producers at a time.
type Engine struct {
	cfg Config
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Apply computes op(r, s) as the two-leaf plan "r op s" on the engine's
// one execution path (EvalCursor): sequential below the sharding
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
// below two means the input is not worth sharding.
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

// cut splits the plan's prepared leaves — sorted by (fid, Ts, Te), bound
// to one order-preserving dictionary, fid columns built — into
// fact-range shards: shard i of the database holds, for every leaf, a
// zero-copy view (relation.Slice) of the rows whose fact id lies in
// [f_i, f_i+1). The K−1 cut ids are the
// combined tuple-count quantiles snapped up to the next fact edge, found
// by binary search over the id domain; each probe counts every leaf's
// rows below the probed id from the leaf's fact-run index
// (relation.Runs.Below, a gallop over its facts), so the cost is
// O(K · leaves · log² facts) compares and O(K · leaves) small allocations
// whatever the input size; no tuple or fid is read, hashed or copied,
// and each view inherits its slice of the index. Every fact group lands
// wholly in one shard and the shards are in ascending fact order, so the
// shard plans' outputs concatenate into canonical order. A fact heavier
// than a quantile step makes consecutive cuts coincide; the all-empty
// shards this yields are dropped. cut returns nil when the plan is not
// worth sharding.
func (e *Engine) cut(names []string, db map[string]*relation.Relation) []map[string]*relation.Relation {
	rels := make([]*relation.Relation, len(names))
	total := 0
	for i, name := range names {
		rels[i] = db[name]
		total += rels[i].Len()
	}
	k := e.shardCount(total)
	if k < 2 {
		return nil
	}
	runs := make([]*relation.Runs, len(rels))
	for i, r := range rels {
		runs[i] = r.Runs()
	}
	facts := int64(relation.SharedDict(rels...).Len())
	shards := make([]map[string]*relation.Relation, 0, k)
	lo, hi := make([]int, len(rels)), make([]int, len(rels))
	f := int64(0)
	for i := 1; i <= k; i++ {
		if i == k {
			f = facts
		} else {
			target := total * i / k
			f += int64(sort.Search(int(facts-f), func(j int) bool {
				below := 0
				for _, x := range runs {
					below += x.Below(f + int64(j))
				}
				return below >= target
			}))
		}
		live := false
		for j, x := range runs {
			hi[j] = x.Below(f)
			live = live || hi[j] > lo[j]
		}
		if live {
			sdb := make(map[string]*relation.Relation, len(rels))
			for j, r := range rels {
				sdb[names[j]] = r.Slice(lo[j], hi[j])
			}
			shards = append(shards, sdb)
		}
		lo, hi = hi, lo
	}
	return shards
}
