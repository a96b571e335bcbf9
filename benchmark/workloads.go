package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/datagen"
)

// sizes are the input dimensions of one run. scale 1.0 is the standing
// benchmark; the smoke test runs 0.01 and the ref-oracle verification
// runs verifySizes.
type sizes struct {
	Tuples    int `json:"tuples"`    // per synthetic relation r, s
	Facts     int `json:"facts"`     // fact universe of r, s
	LibTuples int `json:"libTuples"` // per lib-setops relation
	PutTuples int `json:"putTuples"` // per PUT-replaced relation p{i}
	PutFacts  int `json:"putFacts"`
}

func scaled(base int, scale float64, min int) int {
	if n := int(math.Round(float64(base) * scale)); n > min {
		return n
	}
	return min
}

func sizesFor(scale float64) sizes {
	return sizes{
		Tuples:    scaled(200000, scale, 400),
		Facts:     scaled(2000, scale, 4),
		LibTuples: scaled(100000, scale, 400),
		PutTuples: scaled(20000, scale, 100),
		PutFacts:  scaled(200, scale, 4),
	}
}

// verifySizes is the down-scaled instance every workload's queries are
// checked on against the Def. 3 oracle (internal/ref), which walks
// every time point and cannot run at benchmark scale.
var verifySizes = sizes{Tuples: 400, Facts: 4, LibTuples: 150, PutTuples: 100, PutFacts: 4}

type mode int

const (
	modeStream mode = iota // POST /query/stream against tpserve
	modeQuery              // POST /query + PUT against tpserve -data-dir
	modeLib                // tpset.Eval in-process
)

// workload is one named input mix. The program only ever receives the
// generated CSV files (and, for durable-mixed, PUT bodies derived from
// them); the seed never reaches it.
type workload struct {
	name    string
	why     string
	mode    mode
	queries []string // the fixed cycle
	puts    []string // relations client B replaces round-robin
	tail    bool     // operations are short enough that a window holds about ten beyond the p95
	gen     func(seed int64, sz sizes) []*tpset.Relation
}

// Table III shapes at MaxGap 3: overlapping factor 0.8 and 0.03.
const (
	denseLenR, denseLenS   = 10, 10
	sparseLenR, sparseLenS = 100, 3
	maxGap                 = 3
)

func genPair(lenR, lenS int64) func(int64, sizes) []*tpset.Relation {
	return func(seed int64, sz sizes) []*tpset.Relation {
		r, s := datagen.Pair(datagen.PairConfig{
			NumTuples: sz.Tuples, NumFacts: sz.Facts,
			MaxLenR: lenR, MaxLenS: lenS, MaxGap: maxGap, Seed: seed * 1000,
		})
		return []*tpset.Relation{r, s}
	}
}

func genLib(seed int64, sz sizes) []*tpset.Relation {
	a := datagen.Webkit(datagen.WebkitConfig{NumTuples: sz.LibTuples, Seed: seed * 1000})
	a.Schema.Name = "a"
	out := []*tpset.Relation{a}
	for i, name := range []string{"b", "c", "d"} {
		r := datagen.Shifted(a, name, seed*1000+int64(i)+1)
		r.Schema.Name = name
		out = append(out, r)
	}
	return out
}

func genDurable(seed int64, sz sizes) []*tpset.Relation {
	out := genPair(sparseLenR, sparseLenS)(seed, sz)
	for i := 0; i < 4; i++ {
		out = append(out, datagen.Synthetic(datagen.SyntheticConfig{
			Name: fmt.Sprintf("p%d", i), NumTuples: sz.PutTuples, NumFacts: sz.PutFacts,
			MaxLen: denseLenR, MaxGap: maxGap, Seed: seed*1000 + 10 + int64(i),
		}))
	}
	return out
}

var workloads = []*workload{
	{
		name: "dense-stream",
		why:  "0.7-1.4 output tuples per input tuple: NDJSON encode, socket writes and lineage concat/render/probability do most of the work; an encoder or lineage change must show here",
		mode: modeStream, queries: []string{"r & s", "r | s", "r - s"},
		gen: genPair(denseLenR, denseLenS),
	},
	{
		name: "sparse-stream",
		why:  "about 100 output tuples: the engine's partition copy and k-way merge and the core sweep are the whole cost; an encoder change must show no change here",
		mode: modeStream, queries: []string{"r & s"}, tail: true,
		gen: genPair(sparseLenR, sparseLenS),
	},
	{
		name: "lib-setops",
		why:  "the paper's own metric through the materializing public API (clone+sort, all three operators, many short fact runs), which shares core and lineage with the server but not its path",
		mode: modeLib, queries: []string{"(a | b) - (c & d)"},
		gen: genLib,
	},
	{
		name: "durable-mixed",
		why:  "cached queries beside PUTs on a -data-dir server, then kill -9 and restart: decode/admit, WAL fsync and segment apply, cache invalidation and restore; a read-path gain that costs writes shows here",
		mode: modeQuery, queries: []string{"p0 - p1", "p1 - p2", "p2 - p3", "p3 - p0", "r & s"},
		puts: []string{"p0", "p1", "p2", "p3"}, tail: true,
		gen: genDurable,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are one run's generated relations, in generation (unsorted)
// order, and the CSV files the program is given.
type inputs struct {
	sz       sizes
	names    []string
	rels     map[string]*tpset.Relation
	csv      map[string]string
	csvBytes int64   // all CSV files together: the catalog's user bytes
	genS     float64 // generation + CSV write, excluded from setup_s
}

// prepare generates the workload's relations from the seed and writes
// them as CSV under dir.
func (w *workload) prepare(dir string, seed int64, sz sizes) (*inputs, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{sz: sz, rels: map[string]*tpset.Relation{}, csv: map[string]string{}}
	for _, r := range w.gen(seed, sz) {
		name := r.Schema.Name
		path := filepath.Join(dir, name+".csv")
		if err := tpset.WriteCSVFile(path, r); err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		in.names = append(in.names, name)
		in.rels[name] = r
		in.csv[name] = path
		in.csvBytes += st.Size()
	}
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// relArgs renders the -rel flags that seed tpserve's catalog.
func (in *inputs) relArgs() []string {
	var args []string
	for _, name := range in.names {
		args = append(args, "-rel", name+"="+in.csv[name])
	}
	return args
}
