// Command safetsadump disassembles mobile-code containers. For a SafeTSA
// distribution unit it prints its container line (wire version, v2 model
// revision, payload bytes) and the textual form of the paper's Figure 4
// (type-separated instructions with (l-r) operand references inside the
// Control Structure Tree); with -jbc it compiles TJ source through the
// baseline pipeline and prints the class-file disassembly (the baseline's
// on-disk encoding drops short-form immediates, so .jbc dumps always go
// through the compiler rather than a byte parser).
//
//	safetsadump unit.tsa
//	safetsadump -jbc file.tj...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

func main() {
	jbc := flag.Bool("jbc", false, "treat arguments as TJ source and dump the baseline bytecode")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: safetsadump unit.tsa | safetsadump -jbc file.tj...")
		os.Exit(2)
	}

	if *jbc {
		files := make(map[string]string)
		for _, name := range flag.Args() {
			src, err := os.ReadFile(name)
			if err != nil {
				fatal(err)
			}
			files[name] = string(src)
		}
		out, err := dumpJBCSource(files)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: safetsadump unit.tsa")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	out, err := dumpTSA(data)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// dumpTSA decodes a distribution unit and renders its container line and
// the Figure-4-style disassembly.
func dumpTSA(data []byte) (string, error) {
	c, err := wire.ReadContainer(data)
	if err != nil {
		return "", err
	}
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", c)
	tt := mod.Types
	fmt.Fprintf(&sb, "types: %d (%d implicit)\n", len(tt.ByID)-1, tt.ImplicitLen-1)
	for _, cd := range mod.Classes {
		fmt.Fprintf(&sb, "class %s extends %s (%d slots, %d statics, %d dispatch slots)\n",
			tt.Describe(cd.Type), tt.Describe(cd.Super),
			cd.NumSlots, cd.NumStatics, len(cd.VTable))
	}
	sb.WriteString("\n")
	sb.WriteString(mod.Dump())
	return sb.String(), nil
}

// dumpJBCSource compiles TJ sources through the baseline pipeline and
// renders every class file's disassembly with its Figure-5 size line.
func dumpJBCSource(files map[string]string) (string, error) {
	prog, err := driver.Frontend(files)
	if err != nil {
		return "", err
	}
	p, err := driver.CompileBytecode(prog)
	if err != nil {
		return "", err
	}
	if err := p.Verify(); err != nil {
		return "", fmt.Errorf("verification failed: %w", err)
	}
	var sb strings.Builder
	for _, cf := range p.Classes {
		fmt.Fprintf(&sb, "%s: %d instructions, %d bytes\n",
			cf.Name, cf.NumInstrs(), cf.SerializedSize())
		sb.WriteString(cf.Disassemble())
	}
	return sb.String(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "safetsadump:", err)
	os.Exit(1)
}
