package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare old.json new.json: one row per (end-to-end metric, workload).
// Each file is a results file — the records of one or more invocations
// on one commit; a metric's value is the median over the records and
// its spread the quartile distance over that median. Verdicts, with the
// old median as every ratio's base:
//
//	regressed   the new median is worse by more than the metric's bound
//	better      the new median is better by more than the bound
//	ok          within the bound either way
//	unresolved  either side's spread is wider than the bound, so a move
//	            of that size cannot be told from noise
//
// Per-layer metrics are printed without a verdict: they have no bound.

func loadRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// valuesOf collects metric's values for a workload across records.
func valuesOf(recs []*record, workload, metric string, layers bool) []float64 {
	var xs []float64
	for _, r := range recs {
		wr := r.Workloads[workload]
		if wr == nil {
			continue
		}
		set := wr.E2E
		if layers {
			set = wr.Layers
		}
		if m, ok := set[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func verdict(d metricDef, oldXs, newXs []float64) (ratio float64, v string) {
	om, nm := median(oldXs), median(newXs)
	ratio = nm / om
	worse := ratio - 1
	if d.better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case quartileSpread(oldXs) > d.bound || quartileSpread(newXs) > d.bound:
		v = "unresolved"
	case worse > d.bound:
		v = "regressed"
	case worse < -d.bound:
		v = "better"
	default:
		v = "ok"
	}
	return ratio, v
}

func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldRecs, err := loadRecords(oldPath)
	if err != nil {
		return false, err
	}
	newRecs, err := loadRecords(newPath)
	if err != nil {
		return false, err
	}
	describe := func(label string, recs []*record) {
		r := recs[0]
		fmt.Fprintf(w, "%s: %d record(s), commit %s, nproc %d, GOMAXPROCS %d, %s, scale %g, %gs windows\n",
			label, len(recs), r.Commit, r.NProc, r.GoMaxProcs, r.GoVersion, r.Scale, r.Seconds)
	}
	describe("old", oldRecs)
	describe("new", newRecs)
	if a, b := oldRecs[0], newRecs[0]; a.Scale != b.Scale || a.Seconds != b.Seconds || a.GoMaxProcs != b.GoMaxProcs {
		return false, fmt.Errorf("the two files were not measured with the same scale, window and GOMAXPROCS")
	}
	fmt.Fprintf(w, "\n%-26s %-14s %12s %12s %8s %13s %6s %7s  %s\n",
		"metric", "workload", "old", "new", "new/old", "spreads", "bound", "n", "verdict")
	for _, wl := range workloads {
		for _, d := range e2eMetrics {
			o, n := valuesOf(oldRecs, wl.name, d.name, false), valuesOf(newRecs, wl.name, d.name, false)
			if len(o) == 0 || len(n) == 0 {
				continue // the metric is not defined on this workload
			}
			ratio, v := verdict(d, o, n)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-26s %-14s %12.4f %12.4f %8.3f %5.1f%%/%5.1f%% %5.0f%% %3d/%-3d  %s\n",
				d.name, wl.name, median(o), median(n), ratio, quartileSpread(o)*100, quartileSpread(n)*100, d.bound*100, len(o), len(n), v)
		}
	}
	header := false
	for _, wl := range workloads {
		for _, d := range layerMetrics {
			o, n := valuesOf(oldRecs, wl.name, d.name, true), valuesOf(newRecs, wl.name, d.name, true)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			if !header {
				header = true
				fmt.Fprintf(w, "\n%-38s %-14s %14s %14s %8s\n", "layer metric (no bound)", "workload", "old", "new", "new/old")
			}
			om, nm := median(o), median(n)
			ratio := "-"
			if om != 0 {
				ratio = fmt.Sprintf("%.3f", nm/om)
			}
			fmt.Fprintf(w, "%-38s %-14s %14.4f %14.4f %8s\n", d.name, wl.name, om, nm, ratio)
		}
	}
	return regressed, nil
}
