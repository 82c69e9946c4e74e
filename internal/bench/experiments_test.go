package bench

import (
	"os"
	"testing"
)

// TestExperimentsFileIsCurrent pins the committed EXPERIMENTS.md to the
// generator: the measurement is deterministic, so any difference means
// the corpus, a producer or the optimizer changed and the file was not
// regenerated (go run ./cmd/benchtables -experiments > EXPERIMENTS.md).
func TestExperimentsFileIsCurrent(t *testing.T) {
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatExperiments(measured(t)); got != string(committed) {
		t.Error("EXPERIMENTS.md differs from `go run ./cmd/benchtables -experiments`; regenerate it")
	}
}
