package wire_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// TestBlockContextsRoundTrip: every corpus unit and every benchmark guest,
// as built and at O2, decodes from its v2 bytes to the producer's module
// through every door — whole, OpenVerified and the stream — and
// re-encodes to the same bytes. A block's phi count is decided in the
// context of its predecessor count, which the decoder must know in full
// when it reads the count: a handler's exception edges come from the
// sites before it. So the set must hold blocks of each context that carry
// phis: a join, a handler reached by several exception edges, and a block
// of one predecessor (BitSieve's sieveSearch has one at O2).
func TestBlockContextsRoundTrip(t *testing.T) {
	units := map[string]map[string]string{}
	for _, u := range corpus.Units() {
		units[u.Name] = u.Files
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "guests", "*.tj"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("benchmark guests: %v, %v", paths, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Base(path)
		units[strings.TrimSuffix(file, ".tj")] = map[string]string{file: string(src)}
	}

	var join, handler, single int
	singleIn := map[string]bool{}
	for name, files := range units {
		for _, o2 := range []bool{false, true} {
			mod, err := driver.CompileTSASource(files)
			if err == nil && o2 {
				_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, f := range mod.Funcs {
				for _, b := range f.Blocks {
					switch {
					case len(b.Phis) == 0:
					case len(b.Preds) < 2:
						single++
						singleIn[name] = singleIn[name] || o2
					case b.Preds[0].Site != nil:
						handler++
					default:
						join++
					}
				}
			}
			want, data := mod.Dump(), wire.EncodeModuleV2(mod, nil)
			doors := map[string]func() (*core.Module, error){
				"DecodeModule":   func() (*core.Module, error) { return wire.DecodeModule(data) },
				"DecodeVerified": func() (*core.Module, error) { return wire.DecodeVerified(data) },
				"OpenVerified": func() (*core.Module, error) {
					su, err := wire.OpenVerified(data, nil)
					if err != nil {
						return nil, err
					}
					return su.Mod, su.Wait()
				},
				"DecodeVerifiedStream": func() (*core.Module, error) {
					su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
					if err != nil {
						return nil, err
					}
					return su.Mod, su.Wait()
				},
			}
			for door, decode := range doors {
				dec, err := decode()
				if err != nil {
					t.Fatalf("%s (O2 %v): %s: %v", name, o2, door, err)
				}
				if dec.Dump() != want {
					t.Fatalf("%s (O2 %v): %s: the decoded module is not the producer's", name, o2, door)
				}
				if again := wire.EncodeModuleV2(dec, nil); !bytes.Equal(again, data) {
					t.Fatalf("%s (O2 %v): %s: re-encoding is not canonical", name, o2, door)
				}
			}
		}
	}
	t.Logf("blocks with phis: %d joins, %d handlers, %d of one predecessor", join, handler, single)
	if join == 0 || handler == 0 || single == 0 {
		t.Error("the set lacks a block with phis in one of the phi count's contexts")
	}
	if !singleIn["BitSieve"] {
		t.Error("BitSieve at O2 has no block of one predecessor that carries a phi")
	}
}
