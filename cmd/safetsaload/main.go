// Command safetsaload replays mixed compile/run traffic against a
// running safetsad (or a fleet of them) and reports client-observed
// latency percentiles per stage as a JSON report (bench.FormatJSONLoad).
//
//	safetsaload -targets http://h1:8743,http://h2:8743 \
//	    [-workers 8] [-duration 10s | -requests N] [-units 16] \
//	    [-tenants 1] [-run-fraction 0.8] [-zipf 1.2] [-seed 1] \
//	    [-maxsteps 1000000] [-maxallocs N] [-o report.json]
//
// An invalid flag combination (negative worker count, zipf skew outside
// (1, 64], ...) is rejected before any traffic is sent: the process
// prints the offending field and exits nonzero.
//
// The replay first warms the unit universe (one compile per distinct
// program), then drives the configured worker count with zipfian key
// skew — a few hot units dominating run traffic, compiles trickling over
// the tail — the access pattern a mobile-code distribution fleet
// actually sees. With -tenants N, run traffic is spread over N tenant
// identities ("tenant-0".."tenant-N-1") and the report digests run
// latency per tenant; 429 admission rejections are counted as throttled,
// not errors. The report carries request/throttle/error counters, the
// guest step/alloc drain totals the servers reported (budget parity,
// observable from outside), and the compile/run latency digests (count,
// total, p50/p90/p99).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"safetsa/internal/bench"
)

func main() {
	targets := flag.String("targets", "http://localhost:8743",
		"comma-separated safetsad base URLs to spray traffic over")
	workers := flag.Int("workers", 8, "concurrent client workers")
	duration := flag.Duration("duration", 10*time.Second, "timed-phase length (ignored when -requests is set)")
	requests := flag.Int("requests", 0, "fixed request quota instead of -duration (0 = duration-bounded)")
	units := flag.Int("units", 16, "distinct programs in the key universe")
	runFraction := flag.Float64("run-fraction", 0.8, "probability a draw is a run (rest are compiles)")
	zipf := flag.Float64("zipf", 1.2, "zipfian skew exponent over the unit universe (>1)")
	seed := flag.Int64("seed", 1, "replay RNG seed")
	maxSteps := flag.Int64("maxsteps", 1_000_000, "per-run step budget sent with run requests")
	maxAllocs := flag.Int64("maxallocs", 0, "per-run allocation budget sent with run requests (0 = server cap only)")
	tenants := flag.Int("tenants", 1, "distinct tenant identities to spread run traffic over")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	flag.Parse()

	var urls []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			urls = append(urls, strings.TrimSuffix(t, "/"))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := bench.RunLoad(ctx, bench.LoadConfig{
		Targets:     urls,
		Workers:     *workers,
		Duration:    *duration,
		Requests:    *requests,
		Units:       *units,
		RunFraction: *runFraction,
		ZipfS:       *zipf,
		Seed:        *seed,
		MaxSteps:    *maxSteps,
		MaxAllocs:   *maxAllocs,
		Tenants:     *tenants,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "safetsaload:", err)
		os.Exit(1)
	}

	summarize(res)

	data, err := bench.FormatJSONLoad(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "safetsaload:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "safetsaload:", err)
		os.Exit(1)
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "safetsaload: %d requests failed (first: %s)\n",
			res.Errors, res.ErrorSamples[0])
		os.Exit(1)
	}
}

// summarize prints the human-readable digest to stderr so stdout stays
// pure JSON for piping.
func summarize(res *bench.LoadResult) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(os.Stderr, "safetsaload: %d requests in %v (%.0f req/s) over %d target(s): %d runs, %d compiles (%d cached), %d throttled, %d errors\n",
		res.Requests, res.Elapsed.Round(time.Millisecond),
		float64(res.Requests)/res.Elapsed.Seconds(),
		res.Targets, res.Runs, res.Compiles, res.CachedCompiles, res.Throttled, res.Errors)
	fmt.Fprintf(os.Stderr, "safetsaload: guest drain %d steps, %d allocs over %d accepted runs\n",
		res.GuestSteps, res.GuestAllocs, res.Runs)
	run := res.RunHist.Summary()
	cmp := res.CompileHist.Summary()
	fmt.Fprintf(os.Stderr, "safetsaload: run     p50 %.2fms  p90 %.2fms  p99 %.2fms  (%d samples)\n",
		ms(run.P50Nanos), ms(run.P90Nanos), ms(run.P99Nanos), run.Count)
	fmt.Fprintf(os.Stderr, "safetsaload: compile p50 %.2fms  p90 %.2fms  p99 %.2fms  (%d samples)\n",
		ms(cmp.P50Nanos), ms(cmp.P90Nanos), ms(cmp.P99Nanos), cmp.Count)
	if len(res.TenantRunHists) > 1 {
		for i, h := range res.TenantRunHists {
			s := h.Summary()
			fmt.Fprintf(os.Stderr, "safetsaload: tenant-%d run p50 %.2fms  p99 %.2fms  (%d samples)\n",
				i, ms(s.P50Nanos), ms(s.P99Nanos), s.Count)
		}
	}
}
