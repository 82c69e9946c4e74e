package wire_test

import (
	"bytes"
	"context"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// tailFlips is every single-bit flip in the last 4 bytes of the v2
// encodings of the corpus's units at O0 (moduleLevel false) or O2.
func tailFlips(t *testing.T, moduleLevel bool) [][]byte {
	t.Helper()
	var flips [][]byte
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil && moduleLevel {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		unit := wire.EncodeModuleV2(mod, nil)
		for i := len(unit) - 4; i < len(unit); i++ {
			for bit := 0; bit < 8; bit++ {
				flip := bytes.Clone(unit)
				flip[i] ^= 1 << bit
				flips = append(flips, flip)
			}
		}
	}
	return flips
}

// TestV2TailHasOneSpelling: the last bytes of a v2 unit are the range
// coder's flush, and the decoder admits only the encoder's — its code must
// end at 0 — so each door refuses every single-bit flip of them, and no
// module has a second byte string (and a second wire key).
func TestV2TailHasOneSpelling(t *testing.T) {
	for _, level := range []struct {
		name        string
		moduleLevel bool
	}{{"O0", false}, {"O2", true}} {
		flips := tailFlips(t, level.moduleLevel)
		if len(flips) != 672 {
			t.Fatalf("%s: %d flips, want 672 (21 units, 32 bits each)", level.name, len(flips))
		}
		decoded, opened := 0, 0
		for _, flip := range flips {
			if _, err := wire.DecodeVerified(flip); err == nil {
				decoded++
			}
			if su, err := wire.OpenVerified(flip, nil); err == nil && su.Wait() == nil {
				opened++
			}
		}
		if decoded != 0 || opened != 0 {
			t.Errorf("%s: DecodeVerified admits %d of %d tail flips, OpenVerified+Wait %d", level.name, decoded, len(flips), opened)
		}
	}
}
