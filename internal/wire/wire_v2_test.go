package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// TestV2RoundTrip is TestRoundTrip for the adaptive v2 stream: the
// decoded module must verify, behave identically, re-encode to the
// byte-identical stream (the adaptive models update symmetrically on
// both sides), and dump structurally equal to the original.
func TestV2RoundTrip(t *testing.T) {
	for name, src := range testPrograms {
		for _, optimized := range []bool{false, true} {
			label := name
			if optimized {
				label += "-opt"
			}
			t.Run(label, func(t *testing.T) {
				mod := compileAll(t, src, optimized)
				want := runMod(t, mod)
				data := wire.EncodeModuleV2(mod, nil)
				if v1 := wire.EncodeModule(mod); len(data) >= len(v1) {
					t.Logf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(data), len(v1))
				}
				dec, err := wire.DecodeModule(data)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if err := dec.Verify(core.VerifyOptions{}); err != nil {
					t.Fatalf("decoded module fails verification: %v", err)
				}
				if got := runMod(t, dec); got != want {
					t.Fatalf("decoded module diverges:\nwant %q\ngot  %q", want, got)
				}
				if data2 := wire.EncodeModuleV2(dec, nil); !bytes.Equal(data, data2) {
					t.Fatalf("re-encoding is not canonical: %d vs %d bytes", len(data), len(data2))
				}
				if mod.Dump() != dec.Dump() {
					t.Fatalf("dump mismatch after round trip")
				}
			})
		}
	}
}

// testProgramModules compiles every testProgram (optimized) for
// dictionary training.
func testProgramModules(t *testing.T) []*core.Module {
	t.Helper()
	mods := make([]*core.Module, 0, len(testPrograms))
	for _, src := range testPrograms {
		mods = append(mods, compileAll(t, src, true))
	}
	return mods
}

// TestDictionaryRoundTrip trains a shared dictionary over the test
// bundle and checks the dictionary-bearing streams: byte-identical
// re-encode, structural identity, and that the serialized dictionary
// survives its own round trip.
func TestDictionaryRoundTrip(t *testing.T) {
	mods := testProgramModules(t)
	dict := wire.TrainDictionary(mods)
	if dict == nil {
		t.Fatal("training over the full bundle produced no dictionary")
	}

	// The serialized dictionary parses back with the identical identity
	// and serialization.
	ser := dict.Bytes()
	re, err := wire.ParseDictionary(ser)
	if err != nil {
		t.Fatalf("ParseDictionary(Bytes()): %v", err)
	}
	if re.ID != dict.ID {
		t.Fatalf("dictionary ID changed across serialization: %x vs %x", re.ID, dict.ID)
	}
	if !bytes.Equal(re.Bytes(), ser) {
		t.Fatal("dictionary serialization is not canonical")
	}

	for i, mod := range mods {
		data := wire.EncodeModuleV2(mod, dict)
		dec, err := wire.DecodeModuleOpts(data, wire.DecodeOptions{Dict: dict})
		if err != nil {
			t.Fatalf("module %d: decode with dictionary: %v", i, err)
		}
		if err := dec.Verify(core.VerifyOptions{}); err != nil {
			t.Fatalf("module %d: decoded module fails verification: %v", i, err)
		}
		if mod.Dump() != dec.Dump() {
			t.Fatalf("module %d: dump mismatch through dictionary stream", i)
		}
		if data2 := wire.EncodeModuleV2(dec, dict); !bytes.Equal(data, data2) {
			t.Fatalf("module %d: dictionary re-encoding is not canonical", i)
		}
		// The parsed copy of the dictionary decodes the same stream.
		if _, err := wire.DecodeModuleOpts(data, wire.DecodeOptions{Dict: re}); err != nil {
			t.Fatalf("module %d: parsed dictionary copy rejected the stream: %v", i, err)
		}
	}
}

// TestDictionaryNegotiation: a dictionary-bearing stream decoded
// without the dictionary, or with one of a different identity, fails
// with a clean ErrUnsupportedVersion — "fetch the dictionary", never a
// parse error.
func TestDictionaryNegotiation(t *testing.T) {
	mods := testProgramModules(t)
	dict := wire.TrainDictionary(mods)
	if dict == nil {
		t.Fatal("no dictionary")
	}
	data := wire.EncodeModuleV2(mods[0], dict)

	if _, err := wire.DecodeModule(data); !errors.Is(err, wire.ErrUnsupportedVersion) {
		t.Fatalf("missing dictionary: got %v, want ErrUnsupportedVersion", err)
	}
	wrong := *dict
	wrong.ID[0] ^= 0xFF
	if _, err := wire.DecodeModuleOpts(data, wire.DecodeOptions{Dict: &wrong}); !errors.Is(err, wire.ErrUnsupportedVersion) {
		t.Fatalf("mismatched dictionary: got %v, want ErrUnsupportedVersion", err)
	}
	// With the right dictionary the stream is fine.
	if _, err := wire.DecodeModuleOpts(data, wire.DecodeOptions{Dict: dict}); err != nil {
		t.Fatalf("matching dictionary rejected: %v", err)
	}
}

// TestHostileDictionaryWords: a dictionary is untrusted input, and each
// word of its snapshot is a probability and a count. A probability of 0,
// one whose 11 bits overflowed into the count (2048 is probability 0 at
// count 1), and a count of 30 or 31 — past the saturation point no model
// reaches — are each refused by ParseDictionary; a version-1 dictionary,
// whose words had no count, is refused whole. A trained dictionary's
// words carry their counts: a context the bundle decided often starts its
// unit at the slow rate.
func TestHostileDictionaryWords(t *testing.T) {
	dict := wire.TrainDictionary(testProgramModules(t))
	ser := dict.Bytes()
	saturated := 0
	for _, w := range dict.Probs {
		if w>>11 == 29 {
			saturated++
		}
	}
	if saturated == 0 {
		t.Error("no word of the trained snapshot counts 29 decisions: the counts were not carried")
	}
	last := len(ser) - 2 // the snapshot is the body's tail
	for _, w := range []uint16{0, 2048, 30<<11 | 1024, 31<<11 | 1024, 0xFFFF} {
		bad := bytes.Clone(ser)
		binary.LittleEndian.PutUint16(bad[last:], w)
		if _, err := wire.ParseDictionary(bad); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("word %#04x: got %v, want ErrMalformed", w, err)
		}
	}
	ok := bytes.Clone(ser)
	binary.LittleEndian.PutUint16(ok[last:], 29<<11|2047)
	if _, err := wire.ParseDictionary(ok); err != nil {
		t.Errorf("word %#04x: %v", 29<<11|2047, err)
	}
	v1 := bytes.Clone(ser)
	v1[4] = 1
	if _, err := wire.ParseDictionary(v1); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("a version-1 dictionary: got %v, want ErrMalformed", err)
	}
}

// TestCrossVersionMatrix runs every corpus unit through every wire
// spelling — v1, v2, v2+dictionary — and demands structural identity of
// the decoded modules, plus clean version negotiation: a v1-only
// consumer rejects a v2 stream with ErrUnsupportedVersion, never a
// parse panic.
func TestCrossVersionMatrix(t *testing.T) {
	units := corpus.Units()
	mods := make([]*core.Module, len(units))
	for i, u := range units {
		prog, err := driver.Frontend(u.Files)
		if err != nil {
			t.Fatalf("%s: frontend: %v", u.Name, err)
		}
		mod, err := driver.CompileTSA(prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", u.Name, err)
		}
		mods[i] = mod
	}
	dict := wire.TrainDictionary(mods)
	if dict == nil {
		t.Fatal("corpus bundle trained no dictionary")
	}

	for i, u := range units {
		t.Run(u.Name, func(t *testing.T) {
			mod := mods[i]
			want := mod.Dump()

			v1 := wire.EncodeModule(mod)
			v2 := wire.EncodeModuleV2(mod, nil)
			v2d := wire.EncodeModuleV2(mod, dict)

			for _, tc := range []struct {
				label string
				data  []byte
				opts  wire.DecodeOptions
			}{
				{"v1", v1, wire.DecodeOptions{}},
				{"v2", v2, wire.DecodeOptions{}},
				{"v2+dict", v2d, wire.DecodeOptions{Dict: dict}},
			} {
				dec, err := wire.DecodeModuleOpts(tc.data, tc.opts)
				if err != nil {
					t.Fatalf("%s: decode: %v", tc.label, err)
				}
				if err := dec.Verify(core.VerifyOptions{}); err != nil {
					t.Fatalf("%s: verify: %v", tc.label, err)
				}
				if got := dec.Dump(); got != want {
					t.Fatalf("%s: structural mismatch against source module", tc.label)
				}
			}

			// A v1-only consumer: decodes the v1 stream, and answers the
			// v2 streams with a clean version error.
			if _, err := wire.DecodeModuleV1(v1); err != nil {
				t.Fatalf("v1-only consumer rejected a v1 stream: %v", err)
			}
			for _, data := range [][]byte{v2, v2d} {
				_, err := wire.DecodeModuleV1(data)
				if !errors.Is(err, wire.ErrUnsupportedVersion) {
					t.Fatalf("v1-only consumer on v2 stream: got %v, want ErrUnsupportedVersion", err)
				}
			}
		})
	}
}

// TestNamesAreNotOnTheWire: a body holds only its claim, and its name and
// signature are the claim's, so the wire spells none of them: every corpus
// unit decodes, at v1 and at v2, to bodies that claim what the producer's
// claim, under the producer's names and signatures.
func TestNamesAreNotOnTheWire(t *testing.T) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		for version, data := range map[string][]byte{"v1": wire.EncodeModule(mod), "v2": wire.EncodeModuleV2(mod, nil)} {
			dec, err := wire.DecodeModule(data)
			if err != nil {
				t.Fatalf("%s %s: %v", u.Name, version, err)
			}
			for j, f := range dec.Funcs {
				g := mod.Funcs[j]
				if f.Claim != g.Claim || dec.FuncName(f) != mod.FuncName(g) || dec.NumParams(f) != mod.NumParams(g) {
					t.Errorf("%s %s: function %d decoded as %s (claim %d), the producer's is %s (claim %d)",
						u.Name, version, j, dec.FuncName(f), f.Claim, mod.FuncName(g), g.Claim)
				}
			}
		}
	}
}

// TestOldModelRevisionsAreUnsupported: a v2 unit of a model revision
// other than this decoder's is ErrUnsupportedVersion on every door that
// reads v2, with or without a dictionary flag, and DecodeModuleV1 refuses
// v2 as such. Revisions 1 to 7 were the model byte's low bits — revision
// 7 started every probability at 1/2, revision 6 decided every CST kind
// in one context and a block's phi count with its instruction count,
// revision 5 spelled each imported method's signature and the body
// indices, revision 4 spelled what a consumer derives of the tables and
// coded counts in 4-bit groups, revision 3 moved every probability at one
// rate, revision 2 coded every symbol against per-position probabilities,
// revision 1 spelled each body's signature — and so is a 0 there followed
// by a revision byte other than 8, which is how a later revision will
// begin. A reserved bit of the model byte is still ErrMalformed. A v1 unit
// of the revision that spelled the derived tables ('B') or the imported
// signatures and body indices ('C') is ErrUnsupportedVersion on every
// door.
func TestOldModelRevisionsAreUnsupported(t *testing.T) {
	mod := compileAll(t, testPrograms["objects"], true)
	cur := wire.EncodeModuleV2(mod, nil)
	doors := []struct {
		name   string
		decode func([]byte) error
	}{
		{"DecodeModule", func(b []byte) error { _, err := wire.DecodeModule(b); return err }},
		{"DecodeModuleOpts", func(b []byte) error {
			_, err := wire.DecodeModuleOpts(b, wire.DecodeOptions{Dict: &wire.Dictionary{}})
			return err
		}},
		{"DecodeModuleV1", func(b []byte) error { _, err := wire.DecodeModuleV1(b); return err }},
		{"DecodeVerified", func(b []byte) error { _, err := wire.DecodeVerified(b); return err }},
		{"OpenVerified", func(b []byte) error { _, err := wire.OpenVerified(b, nil); return err }},
		{"OpenVerified lent", func(b []byte) error { _, err := wire.OpenVerified(b, new(wire.Arena)); return err }},
		{"DecodeVerifiedStream", func(b []byte) error {
			_, err := wire.DecodeVerifiedStream(bytes.NewReader(b), wire.DecodeOptions{})
			return err
		}},
		{"DecodeVerifiedStreamIn", func(b []byte) error {
			_, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(b), wire.DecodeOptions{}, new(wire.Arena))
			return err
		}},
	}
	if cur[4] != 0 || cur[5] != wire.ModelAdaptive {
		t.Fatalf("model byte %d and revision %d, want 0 and %d", cur[4], cur[5], wire.ModelAdaptive)
	}
	for _, dictFlag := range []byte{0, 8} {
		for _, rev := range []byte{1, 2, 3, 4, 5, 6, 7} {
			old := bytes.Clone(cur)
			old[4] = rev | dictFlag
			for _, d := range doors {
				if err := d.decode(old); !errors.Is(err, wire.ErrUnsupportedVersion) {
					t.Errorf("%s: model byte %d: got %v, want ErrUnsupportedVersion", d.name, old[4], err)
				}
			}
		}
		for _, rev := range []byte{0, 7, 9, 255} {
			later := bytes.Clone(cur)
			later[4], later[5] = dictFlag, rev
			for _, d := range doors {
				if err := d.decode(later); !errors.Is(err, wire.ErrUnsupportedVersion) {
					t.Errorf("%s: model byte %d, revision byte %d: got %v, want ErrUnsupportedVersion", d.name, later[4], rev, err)
				}
			}
		}
	}
	for _, reserved := range []byte{0x10, 0x80} {
		bad := bytes.Clone(cur)
		bad[4] = reserved
		for _, d := range doors {
			want := wire.ErrMalformed
			if d.name == "DecodeModuleV1" {
				want = wire.ErrUnsupportedVersion
			}
			if err := d.decode(bad); !errors.Is(err, want) {
				t.Errorf("%s: model byte %#x: got %v, want %v", d.name, reserved, err, want)
			}
		}
	}
	for _, version := range []byte{'B', 'C'} {
		old := wire.EncodeModule(mod)
		old[3] = version
		for _, d := range doors {
			if err := d.decode(old); !errors.Is(err, wire.ErrUnsupportedVersion) {
				t.Errorf("%s: v1 unit of version %q: got %v, want ErrUnsupportedVersion", d.name, version, err)
			}
		}
	}
}
