// Package fuzzseed is shared by the fuzz targets' tests: it runs a
// target's generated seeds under their own names, checks an input replayed
// under several names once, reads the inputs a fuzzer found, and holds
// FuzzWireDecode's seed generator, whose inputs the wire and oracle tests
// both sweep. Only tests import it.
package fuzzseed

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// Seed is one input a fuzz target replays under plain `go test`, by the
// name `go test` reports it under, <target>/<Name>.
type Seed struct {
	Name string
	Data []byte
}

// Add seeds f with seeds, each a one-argument []byte input. f.Add alone
// reports an input only by its index (<target>/seed#3); so under plain
// `go test` each seed also runs under its own name, from a corpus
// directory this run writes beside copies of the inputs a fuzzer found
// under testdata/fuzz/<target>, and nothing is written to the package's
// testdata. While fuzzing, the seeds are only f.Added, so the inputs the
// fuzzer finds still land in the package's testdata/fuzz.
func Add(f *testing.F, seeds []Seed) {
	f.Helper()
	for _, s := range seeds {
		f.Add(s.Data)
	}
	if fuzzing() {
		return
	}
	root := f.TempDir()
	dir := filepath.Join(root, "testdata", "fuzz", f.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatal(err)
	}
	write := func(name string, body []byte) {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			f.Fatalf("%s/%s is named twice", f.Name(), name)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	found := filepath.Join("testdata", "fuzz", f.Name())
	entries, err := os.ReadDir(found)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		f.Fatal(err)
	}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(found, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		write(e.Name(), body)
	}
	for _, s := range seeds {
		if s.Name == "" || s.Name != filepath.Base(s.Name) {
			f.Fatalf("seed name %q is not a file name", s.Name)
		}
		write(s.Name, fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", s.Data))
	}
	f.Chdir(root)
}

// fuzzing reports whether this test binary is fuzzing rather than
// replaying its corpus.
func fuzzing() bool {
	fl := flag.Lookup("test.fuzz")
	return fl != nil && fl.Value.String() != ""
}

// Verdicts remembers, per distinct input, the subtest that checked it and
// how that ended, so that an input replayed under several names — each
// seed as <target>/seed#N and by its name, an optimized seed the
// optimizer left byte-identical to its plain one — is checked once and
// every name reports the one verdict. The zero value is ready to use.
type Verdicts struct {
	mu sync.Mutex
	by map[string]verdict
}

type verdict struct {
	name            string
	failed, skipped bool
}

// Run checks data with check under t, unless an earlier subtest checked
// the same bytes: then t ends as that one did, naming it.
func (v *Verdicts) Run(t *testing.T, data []byte, check func(*testing.T, []byte)) {
	t.Helper()
	v.mu.Lock()
	first, seen := v.by[string(data)]
	v.mu.Unlock()
	if seen {
		switch {
		case first.failed:
			t.Fatalf("the same input as %s, which failed", first.name)
		case first.skipped:
			t.Skipf("the same input as %s, which was skipped", first.name)
		}
		return
	}
	defer func() {
		v.mu.Lock()
		if v.by == nil {
			v.by = map[string]verdict{}
		}
		v.by[string(data)] = verdict{t.Name(), t.Failed(), t.Skipped()}
		v.mu.Unlock()
	}()
	check(t, data)
}

// Once is a fuzz body that, replaying the corpus under plain `go test`,
// checks each distinct input once (see Verdicts); while fuzzing it is
// body.
func Once(body func(*testing.T, []byte)) func(*testing.T, []byte) {
	if fuzzing() {
		return body
	}
	v := new(Verdicts)
	return func(t *testing.T, data []byte) { v.Run(t, data, body) }
}

// Found is every input a fuzzer found for one target, the files of dir
// (its testdata/fuzz/<target>), each named by its file. A missing dir
// holds none.
func Found(tb testing.TB, dir string) []Seed {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		tb.Fatal(err)
	}
	var found []Seed
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			tb.Fatalf("%s: not a one-argument []byte corpus entry", filepath.Join(dir, e.Name()))
		}
		found = append(found, Seed{e.Name(), []byte(data)})
	}
	return found
}

// wireDecodePrograms are the corpus.GenerateFuzz seeds of FuzzWireDecode's
// units.
var wireDecodePrograms = []string{"0", "1", "2", "wire"}

// WireDecode is FuzzWireDecode's generated corpus, in f.Add order: a
// handful of degenerate prefixes, then real encodings of generated
// programs in v1, as compiled and after the intraprocedural optimizer
// ("seed_unit_<i>"), so mutation starts from streams that reach deep
// decoder states instead of dying on the magic number, then each unit
// damaged inside its bodies: the middle byte of its first body inverted
// ("seed_body_flip_<i>"), and cut in the middle of its last body
// ("seed_body_cut_<i>"), so the replayed corpus decodes bodies, not only
// tables. Body bounds are the decoder's offsets, to the byte.
func WireDecode(tb testing.TB) []Seed {
	tb.Helper()
	seeds := []Seed{{"seed_empty", []byte{}}, {"seed_zero", []byte{0x00}}, {"seed_magic", []byte("SAFETSA\x00")}}
	var units [][]byte
	for _, prog := range wireDecodePrograms {
		mod, err := driver.CompileTSASource(corpus.GenerateFuzz(prog, 4, 3))
		if err != nil {
			tb.Fatalf("program %s: %v", prog, err)
		}
		units = append(units, wire.EncodeModule(mod))
		if _, err := driver.OptimizeModule(mod); err != nil {
			tb.Fatalf("program %s: %v", prog, err)
		}
		units = append(units, wire.EncodeModule(mod))
	}
	for i, data := range units {
		seeds = append(seeds, Seed{fmt.Sprintf("seed_unit_%d", i), data})
	}
	for i, data := range units {
		su, err := wire.OpenVerified(data, nil)
		if err != nil {
			tb.Fatal(err)
		}
		ends := []int64{su.Offset()} // where the head ends, then each body
		for j := 0; j < su.NumFuncs(); j++ {
			if err := su.WaitFunc(j); err != nil {
				tb.Fatal(err)
			}
			ends = append(ends, su.Offset())
		}
		last := len(ends) - 1
		flip := bytes.Clone(data)
		flip[(ends[0]+ends[1])/2] ^= 0xFF
		seeds = append(seeds,
			Seed{fmt.Sprintf("seed_body_flip_%d", i), flip},
			Seed{fmt.Sprintf("seed_body_cut_%d", i), data[:(ends[last-1]+ends[last])/2]})
	}
	return seeds
}
