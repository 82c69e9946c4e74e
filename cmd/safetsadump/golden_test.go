package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// The quickstart program (examples/quickstart): the paper's Figure 1-4
// worked example wrapped in a main.
func quickstartFiles(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "Quickstart.tj"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{"Quickstart.tj": string(src)}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/safetsadump -update` to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file; if the change is intended, "+
			"regenerate with `go test ./cmd/safetsadump -update`.\ngot:\n%s", name, got)
	}
}

// TestGoldenTSADump pins the .tsa disassembly of the quickstart program
// in wire v1 and in v2: any change to the wire format, the decoder, or the
// printer shows up as a diff here.
func TestGoldenTSADump(t *testing.T) {
	mod, err := driver.CompileTSASource(quickstartFiles(t))
	if err != nil {
		t.Fatal(err)
	}
	for golden, data := range map[string][]byte{
		"quickstart.tsa.golden":    wire.EncodeModule(mod),
		"quickstart.v2.tsa.golden": wire.EncodeModuleV2(mod, nil),
	} {
		got, err := dumpTSA(data)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, golden, got)
	}
}

// TestGoldenJBCDump pins the baseline class-file disassembly of the same
// program.
func TestGoldenJBCDump(t *testing.T) {
	got, err := dumpJBCSource(quickstartFiles(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quickstart.jbc.golden", got)
}
