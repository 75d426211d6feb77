package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDef describes one reported metric. Bound is how far the median may
// worsen, as a share of the other side's median, before -compare calls it
// worse (end-to-end metrics only). Exact marks counts that must repeat bit
// for bit for a fixed seed. Moves names the end-to-end metrics a layer
// metric is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Exact  bool
	Moves  string
}

// endToEndMetrics are what a user of the system pays. error_rate is part of
// the result files and of -compare; towards the driver it travels as the
// contract line's failed/attempted, because a metric there may never be 0.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "match_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "stream_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "parallel_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "model_speedup", Unit: "x", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "http_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "http_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0, Exact: true},
}

const (
	allLib  = "match_mbps, stream_mbps, http_*"
	kernels = "match_mbps, stream_mbps, http_p50_ms on dotstar_dense and clamav_enum"
)

// perLayerMetrics are measured in the traced run, one layer (module) at a
// time, by timing calls into the layer's public functions.
var perLayerMetrics = []metricDef{
	{Name: "regex.compile_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "nfa.states", Unit: "count", Better: "lower", Exact: true, Moves: "setup_s, mem_mb"},

	{Name: "prefilter.build_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "prefilter.scan_mbps", Unit: "MB/s", Better: "higher", Moves: "ceiling of match_mbps, stream_mbps on snort_sparse and needle_requests"},
	{Name: "prefilter.literal_scan_mbps", Unit: "MB/s", Better: "higher", Moves: "same, where the ruleset has required literals (0 where it has none)"},
	{Name: "prefilter.hit_frac", Unit: "ratio", Better: "lower", Exact: true, Moves: "none: says how much of the corpus can start a rule"},
	{Name: "prefilter.skipped_frac", Unit: "ratio", Better: "higher", Exact: true, Moves: "none: says how much of the workload the skip paths own"},

	{Name: "engine.tables_build_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "engine.kernel_mbps.bit", Unit: "MB/s", Better: "higher", Moves: kernels},
	{Name: "engine.kernel_mbps.auto", Unit: "MB/s", Better: "higher", Moves: kernels},
	{Name: "engine.run_mbps.sparse", Unit: "MB/s", Better: "higher", Moves: "none: reference point"},
	{Name: "engine.run_mbps.bit", Unit: "MB/s", Better: "higher", Moves: "none: reference point"},
	{Name: "engine.run_mbps.auto", Unit: "MB/s", Better: "higher", Moves: allLib + " (auto is the default kind)"},
	{Name: "engine.run_mbps.lazydfa", Unit: "MB/s", Better: "higher", Moves: "none: reference point"},
	{Name: "engine.run_mbps.meta", Unit: "MB/s", Better: "higher", Moves: "none: reference point"},
	{Name: "engine.default_over_best", Unit: "ratio", Better: "higher", Moves: allLib},
	{Name: "engine.run_allocs.auto", Unit: "allocs/op", Better: "lower", Moves: "match_mbps on needle_requests"},
	{Name: "engine.switches", Unit: "count", Better: "lower", Exact: true, Moves: "none"},
	{Name: "engine.avg_frontier", Unit: "count", Better: "lower", Exact: true, Moves: "none: says how dense the workload is"},
	{Name: "engine.max_frontier", Unit: "count", Better: "lower", Exact: true, Moves: "none"},
	{Name: "engine.transitions", Unit: "count", Better: "lower", Exact: true, Moves: "none"},
	{Name: "engine.lazydfa_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "engine.run_mbps.lazydfa, engine.run_mbps.meta"},
	{Name: "engine.lazydfa_fellback", Unit: "count", Better: "lower", Exact: true, Moves: "engine.run_mbps.lazydfa, engine.run_mbps.meta"},
	{Name: "engine.scored_tax", Unit: "ratio", Better: "lower", Moves: "none: every workload is unscored"},

	{Name: "core.plan_s", Unit: "s", Better: "lower", Moves: "parallel_mbps"},
	{Name: "core.execute_mbps.seg1", Unit: "MB/s", Better: "higher", Moves: "parallel_mbps"},
	{Name: "core.execute_mbps.seg2", Unit: "MB/s", Better: "higher", Moves: "parallel_mbps"},
	{Name: "core.execute_mbps.seg4", Unit: "MB/s", Better: "higher", Moves: "parallel_mbps"},
	{Name: "core.execute_mbps.seg8", Unit: "MB/s", Better: "higher", Moves: "parallel_mbps"},
	{Name: "core.execute_mbps.serial4", Unit: "MB/s", Better: "higher", Moves: "none: the serial scheduler is not the default"},
	{Name: "core.execute_mbps.sfa4", Unit: "MB/s", Better: "higher", Moves: "none: SFA mode is not the default"},
	{Name: "core.execute_allocs.seg4", Unit: "allocs/op", Better: "lower", Moves: "parallel_mbps"},
	{Name: "core.golden_share", Unit: "ratio", Better: "lower", Moves: "parallel_mbps"},
	{Name: "core.host_scaling", Unit: "ratio", Better: "higher", Moves: "parallel_mbps"},
	{Name: "core.segments", Unit: "count", Better: "higher", Exact: true, Moves: "model_speedup"},
	{Name: "core.cut_range", Unit: "count", Better: "lower", Exact: true, Moves: "model_speedup"},
	{Name: "core.avg_active_flows", Unit: "count", Better: "lower", Exact: true, Moves: "model_speedup, parallel_mbps"},
	{Name: "core.flows_started", Unit: "count", Better: "lower", Exact: true, Moves: "model_speedup, parallel_mbps"},
	{Name: "core.deactivations", Unit: "count", Better: "higher", Exact: true, Moves: "model_speedup"},
	{Name: "core.convergences", Unit: "count", Better: "higher", Exact: true, Moves: "model_speedup"},
	{Name: "core.fiv_kills", Unit: "count", Better: "higher", Exact: true, Moves: "model_speedup"},
	{Name: "core.switch_overhead_pct", Unit: "%", Better: "lower", Exact: true, Moves: "model_speedup"},
	{Name: "core.false_report_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: "model_speedup"},
	{Name: "core.total_cycles", Unit: "cycles", Better: "lower", Exact: true, Moves: "model_speedup"},
	{Name: "core.clamped", Unit: "count", Better: "lower", Exact: true, Moves: "model_speedup"},

	{Name: "pap.match_tax", Unit: "ratio", Better: "lower", Moves: "match_mbps, visible on needle_requests"},
	{Name: "pap.stream_tax", Unit: "ratio", Better: "lower", Moves: "stream_mbps"},
	{Name: "pap.parallel_tax", Unit: "ratio", Better: "lower", Moves: "parallel_mbps"},
	{Name: "pap.match_allocs", Unit: "allocs/op", Better: "lower", Moves: "match_mbps on needle_requests"},
	{Name: "pap.stream_write_allocs", Unit: "allocs/op", Better: "lower", Moves: "stream_mbps"},
	{Name: "pap.matches", Unit: "count", Better: "higher", Exact: true, Moves: "none"},

	{Name: "server.register_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower", Moves: "http_p50_ms, http_rps"},
	{Name: "server.transport_p50_ms", Unit: "ms", Better: "lower", Moves: "http_p50_ms, http_rps on needle_requests"},
	{Name: "server.handler_tax_p50_ms", Unit: "ms", Better: "lower", Moves: "http_p50_ms, http_rps on needle_requests"},
	{Name: "server.p95_ms", Unit: "ms", Better: "lower", Moves: "none: the tail a client sees; too unsteady on a shared host to carry a bound"},
	{Name: "server.p99_ms", Unit: "ms", Better: "lower", Moves: "none: as server.p95_ms"},
	{Name: "server.resp_bytes_mean", Unit: "B", Better: "lower", Moves: "http_p50_ms"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower", Moves: "error_rate"},
	{Name: "server.coalesced_rps", Unit: "1/s", Better: "higher", Moves: "none: coalescing is off by default"},
	{Name: "server.coalesced_p50_ms", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher", Moves: "server.coalesced_rps"},
	{Name: "server.routed_rps", Unit: "1/s", Better: "higher", Moves: "none: no peers by default"},
	{Name: "server.routed_p50_ms", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "server.forwarded_frac", Unit: "ratio", Better: "lower", Moves: "server.routed_p50_ms"},
	{Name: "server.stream_rps", Unit: "1/s", Better: "higher", Moves: "none: sessions are not in the end-to-end set"},
	{Name: "server.stream_write_p50_ms", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "server.parallel_p50_ms", Unit: "ms", Better: "lower", Moves: "none: mode=parallel is not in the end-to-end set"},
	{Name: "server.open_p50_ms", Unit: "ms", Better: "lower", Moves: "none: open-loop point at a fixed rate"},
	{Name: "server.open_p95_ms", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "server.open_late_frac", Unit: "ratio", Better: "lower", Moves: "none: how late the generator ran"},

	{Name: "bench.gen_s", Unit: "s", Better: "lower", Moves: "none: excluded from setup_s"},
	{Name: "bench.timer_ns", Unit: "ns", Better: "lower", Moves: "none: cost of one timed call"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced vs untraced match_mbps"},
}

// printResult prints every metric of a workload by name, with its unit.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  sha256=%s  attempted=%d failed=%d\n", r.Workload, r.SHA256[:16], r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range endToEndMetrics {
		if s, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\tmedian %.6g\tbest %.6g\tworst %.6g\trounds=%d n=%d\n",
				m.Name, s.Value, m.Unit, s.Median, s.Best, s.Worst, len(s.Rounds), s.Samples)
		}
	}
	for _, m := range perLayerMetrics {
		if v, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t-> %s\n", m.Name, v, m.Unit, m.Moves)
		}
	}
	tw.Flush()
	for _, l := range r.Ladder {
		fmt.Fprintln(w, l)
	}
}

// exactLayerMetrics lists the per-layer counts that must repeat exactly.
func exactLayerMetrics() []string {
	var out []string
	for _, m := range perLayerMetrics {
		if m.Exact {
			out = append(out, m.Name)
		}
	}
	return out
}
