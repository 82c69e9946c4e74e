package driver

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/producer.golden")

// pinnedUnits is every corpus unit plus the repository benchmark's four
// guest programs, in a fixed order.
func pinnedUnits(t *testing.T) []corpus.Unit {
	t.Helper()
	units := corpus.Units()
	for _, name := range []string{"Dispatch", "Except", "ListWalk", "Sort"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "guests", name+".tj"))
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, corpus.Unit{Name: "guest/" + name, Files: map[string]string{name + ".tj": string(src)}})
	}
	return units
}

// pinnedTiers are the optimizer tiers the producer is pinned at; nil
// options is O0, no optimizer.
var pinnedTiers = []struct {
	name string
	opts *opt.Options
}{
	{"O0", nil},
	{"O1", &opt.Options{}},
	{"O2", &opt.Options{ModuleLevel: true}},
	{"O1fs", &opt.Options{FieldSensitiveMem: true}},
	{"O2fs", &opt.Options{ModuleLevel: true, FieldSensitiveMem: true}},
}

// TestProducerOutputPinned pins what the producer emits, byte for byte:
// for every unit at O0, O1 and O2 (module tier), and at both optimized
// tiers under the field-sensitive Mem, the sha256 of both wire encodings
// and the optimizer's full statistics. A pass that reorders,
// drops or keeps one instruction differently shows up here by unit and
// tier; the golden is regenerated (`go test ./internal/driver -run
// TestProducerOutputPinned -update`) only by a change that means to alter
// the producer's output.
func TestProducerOutputPinned(t *testing.T) {
	var sb strings.Builder
	for _, u := range pinnedUnits(t) {
		for _, tier := range pinnedTiers {
			mod, err := CompileTSASource(u.Files)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			var st opt.Stats
			if tier.opts != nil {
				if st, err = OptimizeModuleOptions(context.Background(), mod, *tier.opts); err != nil {
					t.Fatalf("%s %s: %v", u.Name, tier.name, err)
				}
			}
			fmt.Fprintf(&sb, "%s %s v1 %x\n", u.Name, tier.name, sha256.Sum256(wire.EncodeModule(mod)))
			fmt.Fprintf(&sb, "%s %s v2 %x\n", u.Name, tier.name, sha256.Sum256(wire.EncodeModuleV2(mod, nil)))
			if tier.opts != nil {
				fmt.Fprintf(&sb, "%s %s stats %+v\n", u.Name, tier.name, st)
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "producer.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/driver -run TestProducerOutputPinned -update` to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("producer output drifted from testdata/producer.golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("producer.golden has %d lines, the producer now yields %d", len(wl), len(gl))
	}
}
