// Command safetsac is the code producer: it compiles TJ source files to a
// SafeTSA distribution unit.
//
//	safetsac [-O | -O2] [-wire 1|2] [-dict FILE] [-train-dict FILE]
//	         [-o out.tsa] [-dump] file.tj...
//
// -O runs the intraprocedural producer-side optimizations (constant
// propagation, CSE with the Mem variable, DCE / check elimination)
// before encoding. -O2 adds the interprocedural tier on top: CHA/RTA
// devirtualization of monomorphic xdispatch sites, inlining of small
// non-recursive callees, and a constant-propagation/CSE/DCE round over
// the merged bodies.
//
// -wire selects the wire format: 1 is the fixed-code v1 stream, 2 the
// adaptive range-coded v2 stream. -dict supplies a shared dictionary
// (an STSD file) for -wire 2; the consumer must hold the same
// dictionary to decode. -train-dict trains a dictionary over the
// compiled unit and writes it to the given path before encoding.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

func main() {
	optimize := flag.Bool("O", false, "run intraprocedural producer-side optimizations")
	moduleOpt := flag.Bool("O2", false, "run the interprocedural optimizer tier (implies -O)")
	out := flag.String("o", "out.tsa", "output distribution unit")
	dump := flag.Bool("dump", false, "print the SafeTSA form instead of writing the unit")
	stats := flag.Bool("stats", false, "print optimization statistics")
	wireVersion := flag.Int("wire", 1, "wire format version: 1 fixed-code, 2 adaptive")
	dictPath := flag.String("dict", "", "shared dictionary (STSD file) to encode against (-wire 2 only)")
	trainDict := flag.String("train-dict", "", "train a shared dictionary over the compiled unit and write it here")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: safetsac [-O | -O2] [-wire 1|2] [-o out.tsa] file.tj...")
		os.Exit(2)
	}
	if *wireVersion != 1 && *wireVersion != 2 {
		fatal(fmt.Errorf("-wire must be 1 or 2, got %d", *wireVersion))
	}
	if *dictPath != "" && *wireVersion != 2 {
		fatal(fmt.Errorf("-dict requires -wire 2"))
	}

	files := make(map[string]string)
	for _, name := range flag.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		files[name] = string(src)
	}
	mod, err := driver.CompileTSASource(files)
	if err != nil {
		fatal(err)
	}
	if *optimize || *moduleOpt {
		st, err := driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: *moduleOpt})
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Fprintf(os.Stderr,
				"instructions %d -> %d, phis %d -> %d, null checks %d -> %d, array checks %d -> %d\n",
				st.InstrsBefore, st.InstrsAfter, st.PhisBefore, st.PhisAfter,
				st.NullChecksBefore, st.NullChecksAfter,
				st.ArrayChecksBefore, st.ArrayChecksAfter)
			if *moduleOpt {
				fmt.Fprintf(os.Stderr, "devirtualized %d, inlined %d\n", st.Devirtualized, st.Inlined)
			}
		}
	}
	if *dump {
		fmt.Print(mod.Dump())
		return
	}
	if *trainDict != "" {
		d := wire.TrainDictionary([]*core.Module{mod})
		if d == nil {
			fatal(fmt.Errorf("unit has no repeated strings to train a dictionary on"))
		}
		if err := os.WriteFile(*trainDict, d.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s: dictionary, %d bytes\n", *trainDict, len(d.Bytes()))
	}
	var data []byte
	switch *wireVersion {
	case 2:
		var dict *wire.Dictionary
		if *dictPath != "" {
			raw, err := os.ReadFile(*dictPath)
			if err != nil {
				fatal(err)
			}
			if dict, err = wire.ParseDictionary(raw); err != nil {
				fatal(err)
			}
		}
		data = wire.EncodeModuleV2(mod, dict)
	default:
		data = wire.EncodeModule(mod)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: wire v%d, %d bytes, %d instructions\n", *out, *wireVersion, len(data), mod.NumInstrs())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "safetsac:", err)
	os.Exit(1)
}
