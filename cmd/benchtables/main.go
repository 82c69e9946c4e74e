// Command benchtables regenerates the paper's evaluation artifacts:
//
//	benchtables -table fig5    # Figure 5: sizes and instruction counts
//	benchtables -table fig6    # Figure 6: checks before/after optimization
//	benchtables -claims        # section 7/8 prose claims, paper vs measured
//	benchtables -all           # everything (also the default with no flag)
//	benchtables -experiments   # the EXPERIMENTS.md body (Markdown)
//
// It exits 2 on a usage error and 1 when a measurement fails or a printed
// claim does not hold. Timings live in the repository benchmark
// (go run ./benchmark --trace 1), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"safetsa/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, bench.MeasureAll))
}

// run is main with its inputs as parameters, so the flag handling and
// the exit codes can be tested without measuring the corpus.
func run(args []string, stdout, stderr io.Writer, measure func() ([]bench.Row, error)) int {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "", "table to print: fig5 or fig6")
	claims := fs.Bool("claims", false, "check the prose claims")
	all := fs.Bool("all", false, "print every table and the claims")
	experiments := fs.Bool("experiments", false, "emit the EXPERIMENTS.md body (Markdown)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchtables: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	switch *table {
	case "", "fig5", "fig6":
	default:
		fmt.Fprintf(stderr, "benchtables: unknown -table %q\n", *table)
		fs.Usage()
		return 2
	}

	rows, err := measure()
	if err != nil {
		fmt.Fprintln(stderr, "benchtables:", err)
		return 1
	}
	if *experiments {
		fmt.Fprint(stdout, bench.FormatExperiments(rows))
		return 0
	}
	everything := *all || (*table == "" && !*claims)
	if everything || *table == "fig5" {
		fmt.Fprintln(stdout, bench.FormatFig5(rows))
	}
	if everything || *table == "fig6" {
		fmt.Fprintln(stdout, bench.FormatFig6(rows))
	}
	if everything || *claims {
		fmt.Fprintln(stdout, bench.FormatClaims(rows))
		for _, c := range bench.CheckClaims(rows) {
			if !c.Holds {
				fmt.Fprintf(stderr, "benchtables: claim does not hold: %s\n", c.Claim)
				return 1
			}
		}
	}
	return 0
}
