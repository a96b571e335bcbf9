// Command benchmark is the repository's standing performance benchmark:
// four workloads, end-to-end metrics measured against a real tpserve
// child process (or the public tpset API), and a separate traced run
// that costs each layer from the outside. See README.md.
//
//	go run . -seed 1                                  every workload, both runs
//	go run . -workload sparse-stream -seed 3 -trace 0 one end-to-end run
//	go run . -compare old.json new.json               judge a change
//
// With -workload, the last line of standard output is one JSON object
// {correct, attempted, failed, metrics} — the form BENCHMARK.json's
// driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 end-to-end, 1 per-layer, -1 both
	scale    float64
	out      string // directory for trace-<workload>.json and results.json
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured window of a run, in seconds")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both")
	flag.Float64Var(&cfg.scale, "scale", 1, "input scale (1 = 200K tuples per relation)")
	flag.StringVar(&cfg.out, "out", "", "directory for trace-<workload>.json and results.json, which every invocation appends its record to (default benchmark/out)")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results files, got %d arguments", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if err := run(cfg); err != nil {
		fatal(err)
	}
}

// progress logs a phase boundary to standard error with the time since
// the process started, so a slow run shows where its wall time went.
var processStart = time.Now()

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// record is one invocation in a results file: where and how it ran,
// and per workload what it measured.
type record struct {
	Commit     string                     `json:"commit"`
	NProc      int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"goVersion"`
	Seed       int64                      `json:"seed"`
	Scale      float64                    `json:"scale"`
	Seconds    float64                    `json:"seconds"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Sizes     sizes            `json:"sizes"`
	InTuples  map[string]int   `json:"inputTuplesPerOp,omitempty"`
	Expected  map[string][]int `json:"verifiedTuplesPerOp,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	E2E       metricSet        `json:"endToEnd,omitempty"`
	Layers    metricSet        `json:"perLayer,omitempty"`
	Trace     string           `json:"traceFile,omitempty"`
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func run(cfg config) error {
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	selected := workloads
	if cfg.workload != "" {
		w := workloadByName(cfg.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		selected = []*workload{w}
	}
	if cfg.trace < -1 || cfg.trace > 1 {
		return fmt.Errorf("-trace %d: want 0, 1 or -1", cfg.trace)
	}

	progress("building tpserve")
	e, err := newEnv()
	if err != nil {
		return err
	}
	// Children and temp dirs are reaped on every way out: return, error,
	// SIGINT, SIGTERM.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		e.cleanup()
		os.Exit(1)
	}()
	defer e.cleanup()

	if cfg.out == "" {
		cfg.out = filepath.Join(e.root, "benchmark", "out")
	}
	rec := &record{
		Commit: commitOf(e.root), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
		Workloads: map[string]*workloadRecord{},
	}
	var last *workloadRecord
	for _, w := range selected {
		wr, err := runWorkload(e, w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", w.name, err)
		}
		rec.Workloads[w.name] = wr
		printWorkload(w, wr)
		last = wr
	}
	if err := appendRecord(filepath.Join(cfg.out, "results.json"), rec); err != nil {
		return err
	}
	if cfg.workload == "" || cfg.trace < 0 {
		return nil
	}
	line := driverLine{Correct: last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed,
		Metrics: map[string]measurement{}}
	if cfg.trace == 0 {
		for _, d := range e2eMetrics {
			if d.gated {
				line.Metrics[d.name] = driverValue(last.E2E[d.name])
			}
		}
	} else {
		for _, d := range layerMetrics {
			line.Metrics[d.name] = driverValue(last.Layers[d.name])
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// driverValue drops the sample count: the contract's metric objects
// have exactly value and unit.
func driverValue(m measurement) measurement { return measurement{Value: m.Value, Unit: m.Unit} }

// runWorkload verifies the workload's queries against the oracle on the
// down-scaled instance, then measures at the configured scale.
func runWorkload(e *env, w *workload, cfg config) (*workloadRecord, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	progress("%s: oracle check on the down-scaled instance", w.name)
	small, err := w.prepare(filepath.Join(e.tmp, w.name+"-oracle"), cfg.seed, verifySizes)
	if err != nil {
		return nil, err
	}
	oracle := newScenario(e, w, small, plan{setups: 1, restarts: 1, oracle: true})
	if err := oracle.run(); err != nil {
		return nil, fmt.Errorf("oracle check: %v", err)
	}

	progress("%s: generating inputs at scale %g", w.name, cfg.scale)
	in, err := w.prepare(filepath.Join(e.tmp, w.name), cfg.seed, sizesFor(cfg.scale))
	if err != nil {
		return nil, err
	}
	wr := &workloadRecord{Sizes: in.sz}
	if cfg.trace != 1 {
		progress("%s: end-to-end run", w.name)
		x := newScenario(e, w, in, plan{setups: 3, warm: window / 8, timed: window, restarts: 5})
		if err := x.run(); err != nil {
			return nil, err
		}
		if x.failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %v\n", w.name, x.failed, x.attempted, x.firstErr)
		}
		wr.E2E, wr.Attempted, wr.Failed = x.metrics, x.attempted, x.failed
		wr.InTuples, wr.Expected = x.inTuples, x.expected
	}
	if cfg.trace != 0 {
		progress("%s: traced per-layer run", w.name)
		layers, path, err := runBudget(e, w, in, cfg.seed, window, cfg.out)
		if err != nil {
			return nil, err
		}
		wr.Layers, wr.Trace = layers, path
		if wr.Attempted == 0 {
			wr.Attempted = 1 // the traced run is one verified pass
		}
	}
	for _, set := range []metricSet{wr.E2E, wr.Layers} {
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("metric %s came out as %v", name, m.Value)
			}
		}
	}
	return wr, nil
}

func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func printWorkload(w *workload, wr *workloadRecord) {
	fmt.Printf("== %s  (attempted %d, failed %d)\n", w.name, wr.Attempted, wr.Failed)
	for _, set := range []metricSet{wr.E2E, wr.Layers} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Printf("  %-40s %14.4f %-6s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Printf(" n=%d", m.Samples)
			}
			fmt.Println()
		}
	}
}

// appendRecord adds rec to the JSON array in path (created if absent),
// so repeated invocations build the sample -compare judges spread on.
func appendRecord(path string, rec *record) error {
	var recs []*record
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	recs = append(recs, rec)
	if data, err = json.MarshalIndent(recs, "", " "); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
