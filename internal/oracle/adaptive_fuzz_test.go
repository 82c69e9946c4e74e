package oracle_test

import (
	"bytes"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// adaptiveSeedSources aim at the adaptive coder's hard cases: skewed
// opcode distributions that drive the per-production contexts far from
// their initial probabilities, string-heavy units where the shared
// dictionary actually fires, and deep control structure exercising the
// CST production contexts.
var adaptiveSeedSources = map[string]string{
	"skewed_opcodes": `
class Main {
    static void main() {
        int s = 0;
        for (int i = 0; i < 40; i++) { s = s + i + i + i + i + i; }
        System.out.println(s);
    }
}`,
	"string_heavy": `
class Main {
    static void main() {
        String a = "shared-prefix-alpha";
        String b = "shared-prefix-beta";
        String c = "shared-prefix-alpha";
        System.out.println(a + b + c);
        System.out.println(a.length() + b.length() + c.length());
    }
}`,
	"deep_control": `
class Main {
    static int f(int n) {
        int r = 0;
        for (int i = 0; i < n; i++) {
            if (i % 3 == 0) { r += 1; } else if (i % 3 == 1) { r += 2; } else { r += 3; }
            try { r += 12 / (i % 5); } catch (ArithmeticException e) { r -= 1; }
        }
        return r;
    }
    static void main() { System.out.println(f(25)); }
}`,
}

// adaptiveSeeds is FuzzAdaptiveWire's generated corpus: each seed
// program, in name order, in v1 and in v2, and one dictionary-bearing v2
// stream, which decodes only with the trained dictionary, so under the
// dictionary-less fuzz oracle it pins the clean version-error path.
func adaptiveSeeds(tb testing.TB) []fuzzseed.Seed {
	tb.Helper()
	names := sortedKeys(adaptiveSeedSources)
	mods := make([]*core.Module, len(names))
	var seeds []fuzzseed.Seed
	for i, name := range names {
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": adaptiveSeedSources[name]})
		if err != nil {
			tb.Fatal(err)
		}
		mods[i] = mod
		seeds = append(seeds,
			fuzzseed.Seed{Name: "seed_" + name + "_v1", Data: wire.EncodeModule(mod)},
			fuzzseed.Seed{Name: "seed_" + name + "_v2", Data: wire.EncodeModuleV2(mod, nil)})
	}
	if dict := wire.TrainDictionary(mods); dict != nil {
		seeds = append(seeds, fuzzseed.Seed{Name: "seed_" + names[0] + "_v2_dict", Data: wire.EncodeModuleV2(mods[0], dict)})
	}
	return seeds
}

// FuzzAdaptiveWire fuzzes the adaptive-wire oracle: every byte string
// that passes admission must be byte-identical under re-encode at both
// model versions, the streaming decoder must agree with the full
// decoder on verdict and structure under arbitrary mutation, and the
// verifying decoder with the self-checking verifier (CheckAdmission). Run by CI
// as a 30s fuzz-smoke job and, on its generated seeds and the inputs a
// fuzzer found, on every plain `go test`.
func FuzzAdaptiveWire(f *testing.F) {
	fuzzseed.Add(f, adaptiveSeeds(f))
	f.Fuzz(fuzzseed.Once(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.CheckAdaptiveWire(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckAdmission(data); err != nil {
			t.Fatal(err)
		}
	}))
}

// TestAdaptiveWireSeeds sweeps every generated seed under a
// deterministic byte mutation, one subtest per seed program, so the
// adaptive byte-identity and streaming-agreement claims hold on damaged
// units in every ordinary test run, not only under -fuzz (the clean seeds
// the fuzz target replays).
func TestAdaptiveWireSeeds(t *testing.T) {
	seeds := adaptiveSeeds(t)
	for _, prog := range sortedKeys(adaptiveSeedSources) {
		t.Run(prog, func(t *testing.T) {
			for _, s := range seeds {
				if !strings.HasPrefix(s.Name, "seed_"+prog+"_") {
					continue
				}
				// Every 7th byte flipped.
				for i := 0; i < len(s.Data); i += 7 {
					mut := bytes.Clone(s.Data)
					mut[i] ^= 0x40
					if err := oracle.CheckAdaptiveWire(mut, fuzzBudgets); err != nil {
						t.Fatalf("%s: mutation at byte %d: %v", s.Name, i, err)
					}
				}
			}
		})
	}
}
