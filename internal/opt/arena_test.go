package opt_test

import (
	"bytes"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// TestPipelineValueForgetsItsModule runs one pipeline value, and one
// arena, over several different modules in turn, and requires each result
// to be what a fresh pipeline makes of the same module: devirt's
// instantiated classes and inline's recursion set are recomputed at the
// start of every run (Pass.Start), never carried over from the module
// before.
func TestPipelineValueForgetsItsModule(t *testing.T) {
	units := corpus.Units()
	o2 := opt.Options{ModuleLevel: true}
	build := func(files map[string]string) *core.Module {
		mod, err := driver.CompileTSASource(files)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	kept := opt.ModulePipeline()
	var arena opt.Arena
	for _, u := range units {
		fresh := build(u.Files)
		wantSt, err := opt.RunPasses(fresh, o2, opt.ModulePipeline(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.EncodeModuleV2(fresh, nil)
		for _, passes := range []struct {
			name string
			p    []opt.Pass
		}{{"kept pipeline", kept}, {"arena", arena.PipelineFor(o2)}} {
			mod := build(u.Files)
			st, err := opt.RunPasses(mod, o2, passes.p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st != wantSt || !bytes.Equal(wire.EncodeModuleV2(mod, nil), want) {
				t.Errorf("%s: the %s run after other modules differs from a fresh pipeline's:\n got %+v\nwant %+v", u.Name, passes.name, st, wantSt)
			}
		}
		arena.Rewind()
	}
}
