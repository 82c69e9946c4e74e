// Command safetsarun is the code consumer: it loads a SafeTSA
// distribution unit (decoding it against the context-bounded alphabets,
// which makes ill-formed references inexpressible), runs the residual
// link verification, and executes static main.
//
//	safetsarun [-maxsteps N] [-engine compiled|reference] unit.tsa
//
// The default engine is the compiled form, the one safetsad serves; -engine=reference selects the direct CST evaluator,
// the executable semantics the compiled engine is tested against.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

func main() {
	maxSteps := flag.Int64("maxsteps", 0, "abort after this many executed instructions (0 = unlimited)")
	engine := flag.String("engine", driver.EngineCompiled,
		"execution engine: compiled (what safetsad serves) or reference (CST evaluator)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: safetsarun [-maxsteps N] [-engine compiled|reference] unit.tsa")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mod, err := wire.DecodeModule(data)
	if err != nil {
		fatal(err)
	}
	out, err := driver.RunModuleEngine(context.Background(), mod, *maxSteps, *engine)
	fmt.Print(out)
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "safetsarun:", err)
	os.Exit(1)
}
