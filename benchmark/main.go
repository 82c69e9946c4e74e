// Command benchmark is the repository's benchmark: it hosts a
// codeserver.Server on a loopback listener inside its own process,
// drives it over real HTTP with a closed loop of two clients, checks
// every response against an independent oracle, and — in a traced run —
// replays the same inputs stage by stage through each layer's public
// functions. See README.md in this directory.
//
//	go run ./benchmark --workload serve_hot --seed 1 --seconds 12 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "one of "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "drives the generated programs, the salts and every random draw")
	seconds := fs.Float64("seconds", 12, "time the timed rounds are sized to take together")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the full report and the span file (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		return 2
	}
	if *name != "all" {
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		names = []string{*name}
	}
	code := 0
	var library map[string]float64
	for _, n := range names {
		rep, err := run(options{
			workload: findWorkload(n), seed: *seed, seconds: *seconds, trace: *trace != 0,
			rounds: timedRounds, outDir: *out, setupReps: 3, tracePasses: 3, library: library,
		})
		if err != nil {
			// No result line: the run could not be made at all.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		library = rep.library
		printReport(os.Stdout, rep)
		line, err := resultLine(rep, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if c := exitCode(rep); c != 0 {
			code = c
		}
	}
	return code
}

// exitCode is non-zero when any response differed from the oracle or
// the run was not in the regime its workload is meant to measure.
func exitCode(rep *report) int {
	if !rep.Correct {
		return 1
	}
	return 0
}
