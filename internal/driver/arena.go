package driver

import (
	"context"
	"sync/atomic"

	"safetsa/internal/core"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/opt"
	"safetsa/internal/ssabuild"
	"safetsa/internal/wire"
)

// Arena is a compile's memory, kept for the next compile (DESIGN.md §5,
// "who owns producer memory"): the token vector and the syntax tree, the
// checker's locals and scopes, the module's bodies, the optimizer's
// pipeline with its side tables, and the v2 encoder's model, register file
// and buffers. Its stages are the package's producer stages, run in one
// arena: Frontend, CompileTSA, Optimize, EncodeV2. Rewind then takes
// everything back at once, so nothing a compile made through an arena —
// program, module, encoding — may be used after its Rewind: a caller
// keeps the bytes by copying them first. An arena serves one compile at a
// time; a caller that keeps none uses the package-level functions, which
// make a fresh one per call in effect.
type Arena struct {
	parse *parser.Arena
	check *sema.Arena
	build *ssabuild.Arena
	opt   opt.Arena
	enc   wire.Encoder
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{parse: parser.NewArena(), check: sema.NewArena(), build: ssabuild.NewArena()}
}

// Frontend is FrontendContext in a's memory.
func (a *Arena) Frontend(ctx context.Context, files map[string]string) (*sema.Program, error) {
	return frontend(ctx, files, a.parse, a.check)
}

// CompileTSA is CompileTSAContext in a's memory.
func (a *Arena) CompileTSA(ctx context.Context, prog *sema.Program) (*core.Module, error) {
	return compileTSA(ctx, prog, a.build)
}

// Optimize is OptimizeModuleOptions with a's pipeline.
func (a *Arena) Optimize(ctx context.Context, mod *core.Module, o opt.Options) (opt.Stats, error) {
	return optimize(ctx, mod, o, a.opt.PipelineFor(o))
}

// EncodeV2 is wire.EncodeModuleV2 (no dictionary) into a's buffers: the
// bytes are a's until Rewind.
func (a *Arena) EncodeV2(mod *core.Module) []byte { return a.enc.EncodeV2(mod, nil) }

// MaxArenaBytes is the most an arena may hold and still be kept for
// another compile (Rewind): the largest corpus unit leaves its arena
// holding 1.6 MB, while a source at the request limit (8 MiB) can leave
// one of about a hundred, its token vector alone ten bytes per source
// byte. DESIGN.md §5 argues the figure.
const MaxArenaBytes = 8 << 20

// Rewind takes back everything the compiles since the last Rewind made
// in a — or, under PoisonRecycled, overwrites it with junk and never hands
// it out again — and reports whether a is worth keeping: false when it
// holds more than MaxArenaBytes, which a caller drops for the collector.
func (a *Arena) Rewind() bool {
	if poisonRecycled.Load() {
		a.parse.Poison()
		a.check.Poison()
		a.build.Poison()
		a.opt.Poison()
		a.enc.Poison()
	} else {
		a.parse.Rewind()
		a.check.Rewind()
		a.build.Rewind()
		a.opt.Rewind()
	}
	return a.Held() <= MaxArenaBytes
}

// Held is the bytes a keeps.
func (a *Arena) Held() int {
	return a.parse.Held() + a.check.Held() + a.build.Held() + a.opt.Held() + a.enc.Held()
}

// poisonRecycled switches Rewind to poison (see PoisonRecycled).
var poisonRecycled atomic.Bool

// PoisonRecycled switches every arena's Rewind to its checking form while
// on is set: what the released compiles made is overwritten with junk —
// zeroed tree nodes and locals, instructions with no opcode, blocks
// numbered -1, encoder bytes of 0xA5 — and is never handed out again, so a
// compile that read anything an earlier one left, or a caller that kept an
// arena's bytes without copying them, diverges from a compile in a fresh
// arena. It is a test hook, like rt.PoisonRecycled.
func PoisonRecycled(on bool) { poisonRecycled.Store(on) }
