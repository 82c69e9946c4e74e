package wire_test

import (
	"context"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// The corpus at O2 (the module pipeline), summed over its 21 units: what
// TestCorpusSizes holds the encoders to.
const (
	corpusV1Bytes   = 36942  // exactly: the v1 code does not adapt
	corpusV2Bytes   = 20340  // at most: the adaptive model may only gain
	corpusDecisions = 267155 // exactly: the grammar's symbols and their codes
)

// compileO2 is a unit of files through the module pipeline (O2).
func compileO2(t *testing.T, name string, files map[string]string) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(files)
	if err == nil {
		_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return mod
}

// TestCorpusSizes is compression's direction check. producer.golden pins
// every unit's hash, so a regenerated golden could give bytes back
// unnoticed; this holds the corpus's totals. With -v it prints the v2
// bytes of the generated units and of the hand-written ones apart (the
// prior is trained on the generator's programs), and where the v2 bits
// go, part by part of the grammar (wire.BudgetOf).
func TestCorpusSizes(t *testing.T) {
	v1, v2, decisions := 0, 0, 0
	var generated, handWritten int
	bits := map[string]float64{}
	for _, u := range corpus.Units() {
		mod := compileO2(t, u.Name, u.Files)
		v1 += len(wire.EncodeModule(mod))
		n := len(wire.EncodeModuleV2(mod, nil))
		v2 += n
		if u.Generated {
			generated += n
		} else {
			handWritten += n
		}
		b := wire.BudgetOf(mod)
		decisions += b.Decisions
		for row, n := range b.Bits {
			bits[row] += n
		}
	}
	if v1 != corpusV1Bytes {
		t.Errorf("v1: %d bytes, want %d", v1, corpusV1Bytes)
	}
	if v2 > corpusV2Bytes {
		t.Errorf("v2: %d bytes, want at most %d", v2, corpusV2Bytes)
	}
	if decisions != corpusDecisions {
		t.Errorf("v2: %d coder decisions, want %d", decisions, corpusDecisions)
	}
	t.Logf("%d units: v1 %d B, v2 %d B (generated %d B, hand-written %d B), %d decisions",
		len(corpus.Units()), v1, v2, generated, handWritten, decisions)
	for _, row := range wire.BudgetRows {
		t.Logf("%-18s %7.0f B", row, bits[row]/8)
	}
}
