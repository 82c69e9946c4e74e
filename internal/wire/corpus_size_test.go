package wire_test

import (
	"context"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// The corpus at O2 (the module pipeline), summed over its 21 units: what
// TestCorpusSizes holds the encoders to.
const (
	corpusV1Bytes   = 36942  // exactly: the v1 code does not adapt
	corpusV2Bytes   = 21209  // at most: the adaptive model may only gain
	corpusDecisions = 267155 // exactly: the grammar's symbols and their codes
)

// TestCorpusSizes is compression's direction check. producer.golden pins
// every unit's hash, so a regenerated golden could give bytes back
// unnoticed; this holds the corpus's totals. With -v it prints where the
// v2 bits go, part by part of the grammar (wire.BudgetOf).
func TestCorpusSizes(t *testing.T) {
	v1, v2, decisions := 0, 0, 0
	bits := map[string]float64{}
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		v1 += len(wire.EncodeModule(mod))
		v2 += len(wire.EncodeModuleV2(mod, nil))
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
	t.Logf("%d units: v1 %d B, v2 %d B, %d decisions", len(corpus.Units()), v1, v2, decisions)
	for _, row := range wire.BudgetRows {
		t.Logf("%-18s %7.0f B", row, bits[row]/8)
	}
}
