package oracle_test

import (
	"sort"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
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

// adaptiveSeedModules compiles every seed source in sorted name order.
func adaptiveSeedModules(tb testing.TB) []*core.Module {
	tb.Helper()
	names := make([]string, 0, len(adaptiveSeedSources))
	for name := range adaptiveSeedSources {
		names = append(names, name)
	}
	sort.Strings(names)
	mods := make([]*core.Module, 0, len(names))
	for _, name := range names {
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": adaptiveSeedSources[name]})
		if err != nil {
			tb.Fatal(err)
		}
		mods = append(mods, mod)
	}
	return mods
}

// adaptiveSeeds emits three wire spellings over the seed bundle: each
// unit fixed-code v1 and adaptive v2, plus one dictionary-bearing v2
// stream (which exercises the version-negotiation rejection path in the
// oracle, since the fuzzer holds no dictionary).
func adaptiveSeeds(f *testing.F) [][]byte {
	f.Helper()
	mods := adaptiveSeedModules(f)
	var seeds [][]byte
	for _, mod := range mods {
		seeds = append(seeds, wire.EncodeModule(mod), wire.EncodeModuleV2(mod, nil))
	}
	if dict := wire.TrainDictionary(mods); dict != nil {
		seeds = append(seeds, wire.EncodeModuleV2(mods[0], dict))
	}
	return seeds
}

// FuzzAdaptiveWire fuzzes the adaptive-wire oracle: every byte string
// that passes admission must be byte-identical under re-encode at both
// model versions, the streaming decoder must agree with the full
// decoder on verdict and structure under arbitrary mutation, and the
// verifying decoder with the self-checking verifier (CheckAdmission). Run by CI
// as a 30s fuzz-smoke job and, through the checked-in testdata/fuzz
// corpus, on every plain `go test`.
func FuzzAdaptiveWire(f *testing.F) {
	for _, s := range adaptiveSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.CheckAdaptiveWire(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckAdmission(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAdaptiveWireSeeds replays the seed set directly (clean and under
// a deterministic byte-mutation sweep), so the adaptive byte-identity
// and streaming-agreement claims hold in every ordinary test run, not
// only under -fuzz.
func TestAdaptiveWireSeeds(t *testing.T) {
	for name, src := range adaptiveSeedSources {
		t.Run(name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
			if err != nil {
				t.Fatal(err)
			}
			for label, data := range map[string][]byte{
				"v1": wire.EncodeModule(mod),
				"v2": wire.EncodeModuleV2(mod, nil),
			} {
				if err := oracle.CheckAdaptiveWire(data, fuzzBudgets); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Deterministic mutation sweep: every 7th byte flipped.
				for i := 0; i < len(data); i += 7 {
					mut := append([]byte(nil), data...)
					mut[i] ^= 0x40
					if err := oracle.CheckAdaptiveWire(mut, fuzzBudgets); err != nil {
						t.Fatalf("%s: mutation at byte %d: %v", label, i, err)
					}
				}
			}
		})
	}
}

// TestWriteAdaptiveSeedCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzAdaptiveWire. Set SAFETSA_WRITE_SEEDS=1 to
// rewrite the files after changing the seed programs or the wire
// format.
func TestWriteAdaptiveSeedCorpus(t *testing.T) { writeSeeds(t, adaptiveSeedFiles) }

// adaptiveSeedFiles is FuzzAdaptiveWire's generated seed corpus: each seed
// program in v1 and in v2, and one dictionary-bearing stream, which
// decodes only with the trained dictionary, so under the dictionary-less
// fuzz oracle it pins the clean version-error path.
func adaptiveSeedFiles(tb testing.TB) seedFiles {
	names := make([]string, 0, len(adaptiveSeedSources))
	for name := range adaptiveSeedSources {
		names = append(names, name)
	}
	sort.Strings(names)
	mods := adaptiveSeedModules(tb)
	dict := wire.TrainDictionary(mods)
	files := seedFiles{}
	for i, name := range names {
		files.add("FuzzAdaptiveWire", "seed_"+name+"_v1", wire.EncodeModule(mods[i]))
		files.add("FuzzAdaptiveWire", "seed_"+name+"_v2", wire.EncodeModuleV2(mods[i], nil))
	}
	if dict != nil {
		files.add("FuzzAdaptiveWire", "seed_"+names[0]+"_v2_dict", wire.EncodeModuleV2(mods[0], dict))
	}
	return files
}
