package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
)

type roundSummary struct {
	Ops     int     `json:"ops"`
	Good    int     `json:"good"`
	WallS   float64 `json:"wall_s"`
	OpsPerS float64 `json:"ops_per_s"`
	P50Ms   float64 `json:"p50_ms"`
	// KernelMs is the machine kernel just before and just after.
	KernelMs [2]float64 `json:"kernel_ms"`
}

// report is everything one run found out. The result line the driver
// reads is cut from it; the whole of it goes to the output directory.
type report struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Env       environment      `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Noisy     bool             `json:"noisy"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Rounds    []roundSummary   `json:"rounds"`
	// SetupS are the set-up times at reference machine speed, SetupRawS
	// as the clock gave them; MachineFactor is how much slower than the
	// reference machine the machine was around the timed rounds.
	SetupS        []float64  `json:"setup_s"`
	SetupRawS     []float64  `json:"setup_raw_s"`
	MachineFactor float64    `json:"machine_factor"`
	Skipped       int        `json:"generated_programs_skipped"`
	Spans         []layerRow `json:"span_table,omitempty"`

	// library is what the layer pass measured, for options.library.
	library map[string]float64
	// stepsPerOp is the guest work per operation the server counted,
	// exact for a seed.
	stepsPerOp float64
}

// processUsage is the cost side: what the process (server and clients
// together, they share it) spent.
type processUsage struct {
	cpuS, gcCPUS, totalCPUS float64
	mallocs, allocBytes     float64
	peakRSSMB               float64
}

func readUsage() processUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return processUsage{
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		gcCPUS:     cpu[0].Value.Float64(),
		totalCPUS:  cpu[1].Value.Float64(),
		mallocs:    float64(ms.Mallocs),
		allocBytes: float64(ms.TotalAlloc),
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// roundSpread is the range of the rounds' throughput over its median.
func roundSpread(perRound []float64) float64 {
	return (slices.Max(perRound) - slices.Min(perRound)) / median(perRound)
}

// roundP50s is the median latency of each round.
func roundP50s(rounds []*roundResult) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, median(r.latencies(nil)))
	}
	return xs
}

// allLatencies pools the successful samples of every round.
func allLatencies(rounds []*roundResult, keep func(*sample) bool) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, r.latencies(keep)...)
	}
	return xs
}

// serverMetrics are read from outside: the difference of two GET /stats
// across the untraced timed rounds, the server's own exact counters and
// stage sums.
func serverMetrics(m map[string]float64, d counters, rounds []*roundResult, ops float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["rt.guest_steps_per_op"] = d["guest_steps"] / ops
	m["rt.guest_allocs_per_op"] = d["guest_allocs"] / ops
	m["codeserver.store_hit_ratio"] = ratio(d["cached_compiles"], d["compile_requests"])
	m["codeserver.loader_hit_ratio"] = ratio(d["loader_hits"], d["loader_hits"]+d["loads"])
	m["codeserver.pool_hit_ratio"] = ratio(d["pool_hits"], d["runs"])
	m["codeserver.store_evictions"] = d["evictions"]
	m["codeserver.loader_evictions"] = d["loader_evicted"]
	m["codeserver.pool_builds"] = d["pool_builds"]
	m["codeserver.pool_declines"] = d["pool_declines"]
	attributed := 0.0
	for _, s := range serverStages {
		m["codeserver.stage."+s+"_us"] = d["nanos."+s] / ops / 1e3
		attributed += d["nanos."+s]
	}
	// A streamed run is inside both its run span and, entirely, its
	// stream-decode span; count it once.
	if d["nanos.wire_decode_stream"] > 0 {
		attributed -= d["nanos.run"]
	}
	clientNs := sum(allLatencies(rounds, nil)) * 1e6
	m["codeserver.unattributed_share"] = 1 - attributed/clientNs
}

func processMetrics(m map[string]float64, after, before processUsage, ops float64) {
	m["process.cpu_ms_per_op"] = (after.cpuS - before.cpuS) * 1e3 / ops
	m["process.alloc_kb_per_op"] = (after.allocBytes - before.allocBytes) / 1e3 / ops
	m["process.mallocs_per_op"] = (after.mallocs - before.mallocs) / ops
	m["process.peak_rss_mb"] = after.peakRSSMB
	if total := after.totalCPUS - before.totalCPUS; total > 0 {
		m["process.gc_cpu_share"] = (after.gcCPUS - before.gcCPUS) / total
	}
}

// clientMetrics are diagnostics the gate does not use: tails move too
// much on two shared cores to bound.
func clientMetrics(m map[string]float64, w *workload, rounds []*roundResult, perRound []float64) {
	all := allLatencies(rounds, nil)
	m["client.p90_ms"] = quantile(all, 0.90)
	m["client.p99_ms"] = quantile(all, 0.99)
	m["client.max_ms"] = slices.Max(all)
	// The two end-to-end values as the clock gave them, before they are
	// put on the footing of the reference machine.
	m["client.median_round_ops_per_s"] = median(perRound)
	m["client.median_round_p50_ms"] = median(roundP50s(rounds))
	m["client.round_spread"] = roundSpread(perRound)
	if w.name == "run_hot_compute" {
		for _, g := range guestNames {
			m["client.guest."+strings.ToLower(g)+"_p50_ms"] = median(allLatencies(rounds,
				func(s *sample) bool { return s.prog.name == g }))
		}
	}
	m["client.kind.run_p50_ms"] = median(allLatencies(rounds, func(s *sample) bool { return s.kind == kindRun }))
	m["client.kind.compile_cached_p50_ms"] = median(allLatencies(rounds,
		func(s *sample) bool { return s.kind == kindCompileCached }))
}

// resultLine is the last line of standard output.
func resultLine(rep *report, trace bool) ([]byte, error) {
	metrics := rep.EndToEnd
	if trace {
		metrics = rep.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

// printReport writes the human-readable part: every metric by name
// with its unit.
func printReport(out *os.File, rep *report) {
	fmt.Fprintf(out, "workload %s  seed %d  scale %.3f  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		rep.Workload, rep.Env.Seed, rep.Env.Scale, rep.Env.Commit, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GOMAXPROCS)
	fmt.Fprintf(out, "  machine factor %.3f  noisy=%v  skipped=%d\n", rep.MachineFactor, rep.Noisy, rep.Skipped)
	for i, r := range rep.Rounds {
		fmt.Fprintf(out, "  round %d: %d/%d ops in %.3f s = %.1f ops/s, p50 %.4f ms, kernel %.1f / %.1f ms\n",
			i+1, r.Good, r.Ops, r.WallS, r.OpsPerS, r.P50Ms, r.KernelMs[0], r.KernelMs[1])
	}
	printMetrics(out, "end to end", endToEnd, rep.EndToEnd)
	if rep.PerLayer != nil {
		printMetrics(out, "per layer", perLayer, rep.PerLayer)
		fmt.Fprintf(out, "  spans by name:\n")
		for _, r := range rep.Spans {
			fmt.Fprintf(out, "    %-32s n=%-6d total %10.3f ms  self %10.3f ms  mean %10.2f us  mallocs %d\n",
				r.Name, r.Count, r.TotalMs, r.SelfMs, r.MeanUs, r.Mallocs)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	fmt.Fprintf(out, "  attempted %d  failed %d  correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
}

func printMetrics(out *os.File, title string, defs []metricDef, got map[string]value) {
	fmt.Fprintf(out, "  %s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "    %-40s %16.6g %s\n", d.Name, got[d.Name].Value, d.Unit)
	}
}
