package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// FuzzWireDecode is the executable form of the paper's referential-
// integrity claim (§2/§9): arbitrary bytes pushed through the decoder
// either fail cleanly or produce a module the verifier accepts, in
// canonical wire form, that runs to a guest-visible outcome under step
// and allocation budgets. oracle.CheckWire encodes exactly that
// contract, and oracle.CheckAdmission that the verifying decoder reaches
// the verifier's verdict; any non-nil result is a decoder admission bug.
//
// Seeds: a handful of degenerate prefixes plus real encodings of corpus
// programs, so mutation starts from streams that reach deep decoder
// states instead of dying on the magic number. The checked-in corpus
// adds those encodings damaged inside their bodies (wireDecodeSeedFiles).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte("SAFETSA\x00"))
	for _, data := range wireDecodeUnits(f) {
		f.Add(data)
	}
	budgets := oracle.Budgets{MaxSteps: 1 << 16, MaxAlloc: 1 << 18}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.CheckWire(data, budgets); err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckAdmission(data); err != nil {
			t.Fatal(err)
		}
	})
}

// wireDecodeSeeds are the corpus.GenerateFuzz seeds of FuzzWireDecode's
// units.
var wireDecodeSeeds = []string{"0", "1", "2", "wire"}

// wireDecodeUnits is each wireDecodeSeeds program in v1, as compiled and
// after the module pipeline.
func wireDecodeUnits(tb testing.TB) [][]byte {
	var units [][]byte
	for _, seed := range wireDecodeSeeds {
		mod, err := driver.CompileTSASource(corpus.GenerateFuzz(seed, 4, 3))
		if err != nil {
			tb.Fatalf("seed %s: %v", seed, err)
		}
		units = append(units, wire.EncodeModule(mod))
		if _, err := driver.OptimizeModule(mod); err != nil {
			tb.Fatalf("seed %s: %v", seed, err)
		}
		units = append(units, wire.EncodeModule(mod))
	}
	return units
}

// wireDecodeSeedFiles is the generated part of FuzzWireDecode's corpus:
// each of its units with the middle byte of its first body inverted
// ("seed_body_flip_<i>"), and cut in the middle of its last body
// ("seed_body_cut_<i>"), so replaying the corpus decodes bodies, not only
// tables. Body bounds are the decoder's offsets, to the byte.
func wireDecodeSeedFiles(tb testing.TB) map[string][]byte {
	files := map[string][]byte{}
	add := func(name string, data []byte) {
		files[name] = fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", data)
	}
	for i, data := range wireDecodeUnits(tb) {
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
		add(fmt.Sprintf("seed_body_flip_%d", i), flip)
		add(fmt.Sprintf("seed_body_cut_%d", i), data[:(ends[last-1]+ends[last])/2])
	}
	return files
}

// TestWriteWireDecodeSeedCorpus rewrites wireDecodeSeedFiles under
// testdata/fuzz/FuzzWireDecode. Set SAFETSA_WRITE_SEEDS=1 to run it.
func TestWriteWireDecodeSeedCorpus(t *testing.T) {
	if os.Getenv("SAFETSA_WRITE_SEEDS") == "" {
		t.Skip("set SAFETSA_WRITE_SEEDS=1 to regenerate the seed corpus")
	}
	for name, body := range wireDecodeSeedFiles(t) {
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzWireDecode", name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireDecodeCorpusReachesBodies replays the checked-in corpus of
// FuzzWireDecode through OpenVerified: at least one unit must have a body
// admitted before its verdict, or the corpus plain `go test` replays
// exercises table parsing only. Its generated seeds must be
// wireDecodeSeedFiles's output.
func TestWireDecodeCorpusReachesBodies(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := wireDecodeSeedFiles(t)
	reached := 0
	for _, e := range ents {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "seed_") && !bytes.Equal(body, want[e.Name()]) {
			t.Errorf("%s is not its generator's output (SAFETSA_WRITE_SEEDS=1 rewrites it)", e.Name())
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(body)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry", e.Name())
		}
		ready := 0
		su, err := wire.OpenVerified([]byte(data), nil)
		if err == nil {
			err = su.Wait()
			ready = su.Ready()
		}
		if ready >= 1 {
			reached++
		}
		t.Logf("%s: %d bodies admitted, then %v", e.Name(), ready, err)
	}
	for name := range want {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s is generated but not checked in", name)
		}
	}
	if reached == 0 {
		t.Error("no corpus entry has a body admitted")
	}
}
