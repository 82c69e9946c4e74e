package oracle_test

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// seedSet is one family of generated seeds: each hand-written program, in
// name order ("seed_<name>"), then each corpus.GenerateFuzz program
// ("seed_gen_<seed>"), compiled plain and through the intraprocedural
// optimizer ("_opt").
type seedSet struct {
	sources   map[string]string
	generated []string
}

func (s seedSet) seeds(tb testing.TB) []fuzzseed.Seed {
	tb.Helper()
	var seeds []fuzzseed.Seed
	add := func(name string, files map[string]string) {
		plain, optimized := wires(tb, files)
		seeds = append(seeds, fuzzseed.Seed{Name: "seed_" + name, Data: plain}, fuzzseed.Seed{Name: "seed_" + name + "_opt", Data: optimized})
	}
	for _, name := range sortedKeys(s.sources) {
		add(name, map[string]string{"Main.tj": s.sources[name]})
	}
	for _, g := range s.generated {
		add("gen_"+g, corpus.GenerateFuzz(g, 4, 3))
	}
	return seeds
}

// wires compiles one source set into its plain and optimized wire images.
func wires(tb testing.TB, files map[string]string) (plain, optimized []byte) {
	tb.Helper()
	mod, err := driver.CompileTSASource(files)
	if err != nil {
		tb.Fatal(err)
	}
	plain = wire.EncodeModule(mod)
	if _, err := driver.OptimizeModule(mod); err != nil {
		tb.Fatal(err)
	}
	return plain, wire.EncodeModule(mod)
}

// sortedKeys is m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// replay runs check over each hand-written program's seeds, as compiled
// and optimized, one subtest per program: the seeds a fuzz target replays,
// reported by the program they were compiled from. An optimized seed the
// optimizer left byte-identical to the plain one is checked once, for
// both.
func (s seedSet) replay(t *testing.T, check func([]byte, oracle.Budgets) error) {
	seeds := map[string][]byte{}
	for _, sd := range s.seeds(t) {
		seeds[sd.Name] = sd.Data
	}
	for _, prog := range sortedKeys(s.sources) {
		t.Run(prog, func(t *testing.T) {
			plain, optimized := "seed_"+prog, "seed_"+prog+"_opt"
			if bytes.Equal(seeds[plain], seeds[optimized]) {
				if err := check(seeds[plain], fuzzBudgets); err != nil {
					t.Fatalf("%s and %s, the same bytes: %v", plain, optimized, err)
				}
				return
			}
			for _, name := range []string{plain, optimized} {
				if err := check(seeds[name], fuzzBudgets); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

// fuzzTargets are this package's fuzz targets' seed generators, by target.
var fuzzTargets = map[string]func(testing.TB) []fuzzseed.Seed{
	"FuzzAdaptiveWire":         adaptiveSeeds,
	"FuzzModulePasses":         moduleSeeds.seeds,
	"FuzzPooledDifferential":   pooledSeeds.seeds,
	"FuzzPreparedDifferential": preparedSeeds.seeds,
	"FuzzCompiledDifferential": compiledSeeds.seeds,
}

// replayedInputs is every input plain `go test` replays through target,
// one of fuzzTargets or internal/wire's FuzzWireDecode: what its generator
// adds, then each input a fuzzer found for it.
func replayedInputs(t *testing.T, target string) []fuzzseed.Seed {
	t.Helper()
	if target == "FuzzWireDecode" {
		return append(fuzzseed.WireDecode(t), fuzzseed.Found(t, filepath.Join("..", "wire", "testdata", "fuzz", target))...)
	}
	return append(fuzzTargets[target](t), fuzzseed.Found(t, filepath.Join("testdata", "fuzz", target))...)
}
