package oracle_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// scheduleCuts are the truncation points that matter to a streaming
// consumer: the very start, every function boundary, and one byte past
// each boundary, which lands inside the next function's first varint.
func scheduleCuts(t *testing.T, data []byte, o wire.DecodeOptions) []int {
	t.Helper()
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), o)
	if err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	cuts := []int{0, 1, 3}
	for j := 0; j < su.NumFuncs(); j++ {
		if err := su.WaitFunc(j); err != nil {
			t.Fatalf("clean stream rejected: %v", err)
		}
		b := su.Offset() // just past function j
		for _, c := range []int64{b, b + 1} {
			if c > 3 && c < int64(len(data)) {
				cuts = append(cuts, int(c))
			}
		}
	}
	return cuts
}

// TestSchedulesCannotDisagreeCorpus sweeps oracle.CheckStreamingWire over
// the paper corpus at every wire spelling (v1, v2, v2 with a trained
// dictionary): the clean stream, a cut at every function boundary and
// mid-varint around it, and a byte-flip stride. One-shot and streaming
// admission must return the same verdict and the same rule error each
// time, and a rejected stream may have opened its gate only for the
// functions before the rejected one.
func TestSchedulesCannotDisagreeCorpus(t *testing.T) {
	units := corpus.Units()
	mods := make([]*core.Module, len(units))
	for i, u := range units {
		mod, err := driver.CompileTSASource(u.Files)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		mods[i] = mod
	}
	dict := wire.TrainDictionary(mods)
	if dict == nil {
		t.Fatal("the corpus trains no dictionary")
	}
	for i, u := range units {
		mod := mods[i]
		t.Run(u.Name, func(t *testing.T) {
			t.Parallel()
			for _, sp := range []struct {
				label string
				data  []byte
				opts  wire.DecodeOptions
			}{
				{"v1", wire.EncodeModule(mod), wire.DecodeOptions{}},
				{"v2", wire.EncodeModuleV2(mod, nil), wire.DecodeOptions{}},
				{"v2+dict", wire.EncodeModuleV2(mod, dict), wire.DecodeOptions{Dict: dict}},
			} {
				check := func(what string, data []byte) {
					if err := oracle.CheckStreamingWireOpts(data, sp.opts, fuzzBudgets); err != nil {
						t.Fatalf("%s %s: %v", sp.label, what, err)
					}
				}
				check("clean", sp.data)
				for _, cut := range scheduleCuts(t, sp.data, sp.opts) {
					check("cut at "+strconv.Itoa(cut), sp.data[:cut])
				}
				stride := len(sp.data)/16 + 1
				if testing.Short() {
					stride *= 4
				}
				for at := 0; at < len(sp.data); at += stride {
					mut := bytes.Clone(sp.data)
					mut[at] ^= 0x40
					check("flip at "+strconv.Itoa(at), mut)
				}
			}
		})
	}
}

// TestSchedulesCannotDisagreeSeeds holds the same property over every
// input FuzzWireDecode and FuzzAdaptiveWire replay — past crashers
// included, among them the orphan-body unit on which the two hand-written
// copies of the link rule once disagreed — clean, truncated at every
// prefix that is cheap to try, and under a byte-flip sweep.
func TestSchedulesCannotDisagreeSeeds(t *testing.T) {
	var verdicts fuzzseed.Verdicts
	for _, target := range []string{"FuzzWireDecode", "FuzzAdaptiveWire"} {
		for _, in := range replayedInputs(t, target) {
			t.Run(target+"/"+in.Name, func(t *testing.T) {
				verdicts.Run(t, in.Data, func(t *testing.T, in []byte) {
					sweep(in, func(what string, data []byte) {
						if err := oracle.CheckStreamingWire(data, fuzzBudgets); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					})
				})
			})
		}
	}
}

// TestAdmissionDriversAgreeOnSeeds holds admission's two drivers to one
// verdict (oracle.CheckAdmission) over every input of every fuzz target
// that reads wire bytes, clean, truncated at every prefix that is cheap to
// try, and under a byte-flip sweep: the decoder that calls each rule as it
// reads admits a unit exactly when the decoder alone reads it and the
// self-checking walker accepts what it read.
func TestAdmissionDriversAgreeOnSeeds(t *testing.T) {
	type input struct {
		data  []byte
		names []string // every target/name it is replayed under
	}
	var inputs []*input
	byData := map[string]*input{}
	for _, target := range append([]string{"FuzzWireDecode"}, sortedKeys(fuzzTargets)...) {
		for _, in := range replayedInputs(t, target) {
			if byData[string(in.Data)] == nil {
				byData[string(in.Data)] = &input{data: in.Data}
				inputs = append(inputs, byData[string(in.Data)])
			}
			byData[string(in.Data)].names = append(byData[string(in.Data)].names, target+"/"+in.Name)
		}
	}
	for _, in := range inputs {
		sweep(in.data, func(what string, data []byte) {
			if err := oracle.CheckAdmission(data); err != nil {
				t.Fatalf("%s, %s: %v", strings.Join(in.names, " = "), what, err)
			}
		})
	}
}

// sweep hands check data clean, truncated at every prefix that is cheap
// to try, and with every 7th byte flipped, one at a time.
func sweep(data []byte, check func(what string, data []byte)) {
	check("clean", data)
	for cut := 0; cut < len(data); cut += len(data)/64 + 1 {
		check("cut at "+strconv.Itoa(cut), data[:cut])
	}
	for at := 0; at < len(data); at += 7 {
		mut := bytes.Clone(data)
		mut[at] ^= 0x40
		check("flip at "+strconv.Itoa(at), mut)
	}
}
