package oracle_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// seedFiles is a generated seed corpus: each file's body by its path under
// testdata/fuzz, "<target>/seed_<name>".
type seedFiles map[string][]byte

// add records data as the seed file target/name, in the format `go test`
// reads a corpus entry in.
func (s seedFiles) add(target, name string, data []byte) {
	s[target+"/"+name] = fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", data)
}

// seedGenerators are the generators of every checked-in seed_* file, the
// halves of the fuzz corpora the fuzzer did not find.
var seedGenerators = []func(testing.TB) seedFiles{
	adaptiveSeedFiles, moduleSeedFiles, pooledSeedFiles, engineSeedFiles,
}

// plainAndOptimizedSeeds is target's corpus of each source in sources in
// v1, as compiled ("seed_<name>") and after the module pipeline
// ("seed_<name>_opt").
func plainAndOptimizedSeeds(tb testing.TB, target string, sources map[string]string) seedFiles {
	files := seedFiles{}
	for name, src := range sources {
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
		if err != nil {
			tb.Fatal(err)
		}
		files.add(target, "seed_"+name, wire.EncodeModule(mod))
		if _, err := driver.OptimizeModule(mod); err != nil {
			tb.Fatal(err)
		}
		files.add(target, "seed_"+name+"_opt", wire.EncodeModule(mod))
	}
	return files
}

// writeSeeds writes gen's files under testdata/fuzz when
// SAFETSA_WRITE_SEEDS is set.
func writeSeeds(t *testing.T, gen func(testing.TB) seedFiles) {
	if os.Getenv("SAFETSA_WRITE_SEEDS") == "" {
		t.Skip("set SAFETSA_WRITE_SEEDS=1 to regenerate the seed corpus")
	}
	for path, body := range gen(t) {
		path = filepath.Join("testdata", "fuzz", path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedCorporaAreCurrent runs every seed generator in memory and holds
// the checked-in corpora to its output: in each generated target's
// directory the seed_* files are exactly the generated ones, name for
// name and byte for byte. A format or seed-program change that was not
// followed by SAFETSA_WRITE_SEEDS=1 fails here, instead of leaving plain
// `go test` replaying units every decoder refuses at the version byte.
func TestSeedCorporaAreCurrent(t *testing.T) {
	want := seedFiles{}
	for _, gen := range seedGenerators {
		for path, body := range gen(t) {
			if _, dup := want[path]; dup {
				t.Fatalf("%s is generated twice", path)
			}
			want[path] = body
		}
	}
	targets := map[string]bool{}
	for path := range want {
		targets[filepath.Dir(path)] = true
	}
	have := seedFiles{}
	for target := range targets {
		dir := filepath.Join("testdata", "fuzz", target)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasPrefix(e.Name(), "seed_") {
				continue
			}
			body, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			have[target+"/"+e.Name()] = body
		}
	}
	for path, body := range want {
		switch got, ok := have[path]; {
		case !ok:
			t.Errorf("%s is generated but not checked in", path)
		case !bytes.Equal(got, body):
			t.Errorf("%s differs from its generator's output", path)
		}
	}
	for path := range have {
		if _, ok := want[path]; !ok {
			t.Errorf("%s is checked in but no generator writes it", path)
		}
	}
	if t.Failed() {
		t.Log("regenerate with SAFETSA_WRITE_SEEDS=1 go test -run 'TestWrite.*SeedCorpus' ./internal/oracle")
	}
}
