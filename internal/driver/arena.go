package driver

import (
	"context"

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
// byte. DESIGN.md §9 argues the figure.
const MaxArenaBytes = 8 << 20

// Rewind takes back everything the compiles since the last Rewind made
// in a — overwritten with junk and never handed out again while
// core.Poisoning — and reports the bytes a keeps: more than MaxArenaBytes,
// and a stock drops it for the collector.
func (a *Arena) Rewind() int {
	return a.parse.Rewind() + a.check.Rewind() + a.build.Rewind() + a.opt.Rewind() + a.enc.Rewind()
}
