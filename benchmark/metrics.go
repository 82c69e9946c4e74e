package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a caller of safetsad sees, measured with the
// benchmark's own tracing off; the three times are put on the footing
// of the reference machine (see machineKernel). Failed operations are
// not a metric: they are the "failed" count of the result line and fail
// the run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"unit_bytes", "bytes", "lower"},
	{"setup_s", "s", "lower"},
}

var engines = []string{"reference", "prepared", "compiled"}

// guestNames are the six compute guests of run_hot_compute, in the
// order the workload cycles them.
var guestNames = []string{"Linpack", "BitSieve", "Dispatch", "Sort", "ListWalk", "Except"}

// passNames are the optimizer passes reported one row each; the
// numbered repeats of a pass (constprop2, cse3, ...) are summed into it.
var passNames = []string{"constprop", "cse", "dce", "devirt", "inline", "checkelim"}

// serverStages are the stage histograms codeserver exports in /stats.
var serverStages = []string{"compile", "decode", "verify", "prepare", "compile_backend", "run", "wire_decode_stream"}

// perLayer is every single-layer metric, reported by a traced run. A
// metric a workload has no operation for reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{name, unit, better}) }

	add("lang.frontend_ms", "ms", "lower")
	add("lang.src_mb_per_s", "MB/s", "higher")
	add("lang.allocs_per_unit", "allocs", "lower")

	add("ssabuild.build_ms", "ms", "lower")
	add("ssabuild.allocs_per_unit", "allocs", "lower")
	add("ssabuild.instrs_out", "count", "lower")

	add("opt.o1_ms", "ms", "lower")
	add("opt.o2_ms", "ms", "lower")
	for _, p := range passNames {
		add("opt.pass."+p+"_ms", "ms", "lower")
	}
	add("opt.allocs_per_unit", "allocs", "lower")
	add("opt.instrs_after_o1", "count", "lower")
	add("opt.instrs_after_o2", "count", "lower")
	for _, c := range []string{"phis_removed", "null_checks_removed", "index_checks_removed",
		"devirtualized", "inlined", "checks_elided", "exc_edges_pruned"} {
		add("opt."+c, "count", "higher")
	}
	for _, t := range []string{"o0", "o1", "o2"} {
		add("opt.guest_steps."+t, "steps", "lower")
	}

	for _, s := range []string{"encode_v1", "encode_v2", "decode_v1", "decode_v2"} {
		add("wire."+s+"_ms", "ms", "lower")
	}
	add("wire.decode_v2_mb_per_s", "MB/s", "higher")
	add("wire.decode_allocs_per_unit", "allocs", "lower")
	add("wire.stream_ttfi_ms", "ms", "lower")
	add("wire.stream_full_ms", "ms", "lower")
	add("wire.v1_bytes", "bytes", "lower")
	add("wire.v2_bytes", "bytes", "lower")
	add("wire.v2_dict_bytes", "bytes", "lower")

	add("core.verify_ms", "ms", "lower")
	add("core.verify_ns_per_instr", "ns/instr", "lower")
	add("core.verify_allocs_per_unit", "allocs", "lower")

	add("bytecode.bytes", "bytes", "lower")
	add("bytecode.verify_ms", "ms", "lower")

	add("interp.prepare_ms", "ms", "lower")
	add("interp.compile_ms", "ms", "lower")
	for _, s := range []string{"load", "static_init", "snapshot_build", "snapshot_clone"} {
		add("interp."+s+"_us", "us", "lower")
	}
	add("interp.session_allocs", "allocs", "lower")
	for _, e := range engines {
		add("interp.run_ms."+e, "ms", "lower")
	}
	for _, e := range engines {
		add("interp.steps_per_us."+e, "steps/us", "higher")
	}
	for _, e := range engines {
		add("interp.short_session_us."+e, "us", "lower")
	}

	add("rt.guest_steps_per_op", "steps", "lower")
	add("rt.guest_allocs_per_op", "allocs", "lower")

	for _, r := range []string{"store_hit_ratio", "loader_hit_ratio", "pool_hit_ratio"} {
		add("codeserver."+r, "ratio", "higher")
	}
	for _, c := range []string{"store_evictions", "loader_evictions", "pool_builds", "pool_declines"} {
		add("codeserver."+c, "count", "lower")
	}
	for _, s := range serverStages {
		add("codeserver.stage."+s+"_us", "us", "lower")
	}
	add("codeserver.unattributed_share", "share", "lower")
	for _, s := range []string{"keyfor", "direct", "http_overhead", "self"} {
		add("codeserver."+s+"_us", "us", "lower")
	}

	add("process.cpu_ms_per_op", "ms", "lower")
	add("process.alloc_kb_per_op", "kB", "lower")
	add("process.mallocs_per_op", "allocs", "lower")
	add("process.gc_cpu_share", "share", "lower")
	add("process.peak_rss_mb", "MB", "lower")
	add("process.calib_ms", "ms", "lower")

	add("client.p90_ms", "ms", "lower")
	add("client.p99_ms", "ms", "lower")
	add("client.max_ms", "ms", "lower")
	add("client.median_round_ops_per_s", "1/s", "higher")
	add("client.median_round_p50_ms", "ms", "lower")
	add("client.round_spread", "share", "lower")
	for _, g := range guestNames {
		add("client.guest."+strings.ToLower(g)+"_p50_ms", "ms", "lower")
	}
	add("client.kind.run_p50_ms", "ms", "lower")
	add("client.kind.compile_cached_p50_ms", "ms", "lower")

	add("trace.overhead_share", "share", "lower")
	return d
}

// value is one measured metric as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured numbers into the result-line shape, filling
// in 0 for a metric the workload did not produce.
func collect(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
