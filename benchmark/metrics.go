package main

// The metric registry: every name the harness can print, with its unit,
// direction and — for end-to-end metrics — the share of the baseline
// median by which it may worsen before -compare (and, for the gated
// ones, the driver behind BENCHMARK.json) calls it a regression.
// BENCHMARK.json is checked against this table by the smoke test.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // 0 for per-layer metrics: tracked, never gated
	// gated end-to-end metrics are defined on every workload and are the
	// ones BENCHMARK.json lists; the others exist on the workloads named
	// in the README table and are judged by -compare only.
	gated bool
}

// Every wall-clock metric carries the widest bound the benchmark
// contract allows: on the shared two-CPU host this was defined on, two
// ten-run sets of one commit over the same seeds spread by 10-28 % and
// their medians moved by up to 15 % (README, "On the bounds"). The disk
// ratio repeats exactly and keeps ISSUE 12's bound.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, gated: true},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25, gated: true},
	{name: "op_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ttft_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "put_ack_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "put_ack_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "restart_s", unit: "s", better: "lower", bound: 0.25},
	{name: "disk_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.02},
}

var layerMetrics = []metricDef{
	{name: "query.parse_plan_us", unit: "us", better: "lower"},
	{name: "server.snapshot_us", unit: "us", better: "lower"},
	{name: "engine.plan_ms", unit: "ms", better: "lower"},
	{name: "engine.plan_alloc_bytes", unit: "bytes", better: "lower"},
	{name: "engine.shards", unit: "count", better: "lower"},
	{name: "engine.drain_ms", unit: "ms", better: "lower"},
	{name: "engine.drain_seq_ms", unit: "ms", better: "lower"},
	{name: "engine.allocs_per_op", unit: "count", better: "lower"},
	{name: "engine.alloc_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "core.sweep_ns_per_in_tuple", unit: "ns", better: "lower"},
	{name: "core.windows_per_in_tuple", unit: "ratio", better: "lower"},
	{name: "core.opcursor_ns_per_in_tuple", unit: "ns", better: "lower"},
	{name: "lineage.concat_ns_per_out_tuple", unit: "ns", better: "lower"},
	{name: "lineage.prob_ns_per_out_tuple", unit: "ns", better: "lower"},
	{name: "lineage.render_ns_per_out_tuple", unit: "ns", better: "lower"},
	{name: "server.encode_ns_per_out_tuple", unit: "ns", better: "lower"},
	{name: "server.encode_allocs_per_out_tuple", unit: "count", better: "lower"},
	{name: "server.out_bytes_per_tuple", unit: "bytes", better: "lower"},
	{name: "server.encode_rel_ns_per_out_tuple", unit: "ns", better: "lower"},
	{name: "server.stream_inproc_ms", unit: "ms", better: "lower"},
	{name: "server.http_op_ms", unit: "ms", better: "lower"},
	{name: "server.http_residual_ms", unit: "ms", better: "lower"},
	{name: "csvio.read_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "relation.intern_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "relation.sort_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "relation.validate_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "relation.buildcols_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "server.decode_json_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "server.decode_rel_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "server.admit_known_us", unit: "us", better: "lower"},
	{name: "server.admit_newfacts_ms", unit: "ms", better: "lower"},
	{name: "segment.encode_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "segment.put_ms", unit: "ms", better: "lower"},
	{name: "segment.apply_ms", unit: "ms", better: "lower"},
	{name: "segment.restore_ms", unit: "ms", better: "lower"},
	{name: "faultfs.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "faultfs.fsyncs_per_put", unit: "count", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.gen_s", unit: "s", better: "lower"},
}

// measurement is one reported value. samples is the number of timed
// observations behind it (0 for counts and ratios of totals).
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a run's measurements by name.
type metricSet map[string]measurement

func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// set records a measurement under a registered name; an unregistered
// name is a harness bug.
func (m metricSet) set(name string, v float64, samples int) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: unregistered metric " + name)
	}
	m[name] = measurement{Value: v, Unit: d.unit, Samples: samples}
}
