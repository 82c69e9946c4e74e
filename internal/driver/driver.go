// Package driver wires the compilation pipeline together: TJ source →
// parse → sema → SafeTSA build (→ optimize) → wire encode, plus the
// consumer side (decode → verify → execute). The cmd tools, the bench
// harness, the codeserver pool, and the tests all go through these
// helpers.
//
// The producer stages the concurrent codeserver runs have a context-aware
// form (FrontendContext, CompileTSAContext, OptimizeModuleOptions); the
// plain forms are shorthands bound to context.Background(). Errors are
// tagged with an ErrorKind so servers can map user-program faults and
// pipeline faults to different failure classes.
package driver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"safetsa/internal/bytecode"
	"safetsa/internal/core"
	"safetsa/internal/interp"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/obs"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
)

// Frontend parses and checks a set of named TJ sources.
func Frontend(files map[string]string) (*sema.Program, error) {
	return FrontendContext(context.Background(), files)
}

// FrontendContext parses and checks a set of named TJ sources, honoring
// cancellation between files.
func FrontendContext(ctx context.Context, files map[string]string) (*sema.Program, error) {
	return frontend(ctx, files, new(parser.Arena), new(sema.Arena))
}

func frontend(ctx context.Context, files map[string]string, pa *parser.Arena, sa *sema.Arena) (*sema.Program, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	asts := make([]*ast.File, 0, len(names))
	var errs []error
	_, psp := obs.Start(ctx, "parse")
	for _, n := range names {
		if err := ctx.Err(); err != nil {
			psp.End()
			return nil, err
		}
		f, ferrs := pa.ParseFile(n, files[n])
		errs = append(errs, ferrs...)
		asts = append(asts, f)
	}
	psp.End()
	if len(errs) > 0 {
		return nil, wrapKind(KindParse, fmt.Errorf("parse: %w", errors.Join(errs...)))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, ssp := obs.Start(ctx, "sema")
	prog, serrs := sa.Check(asts...)
	ssp.End()
	if len(serrs) > 0 {
		return nil, wrapKind(KindSema, fmt.Errorf("sema: %w", errors.Join(serrs...)))
	}
	return prog, nil
}

// CompileTSA builds the (unoptimized) SafeTSA module for a program.
func CompileTSA(prog *sema.Program) (*core.Module, error) {
	return CompileTSAContext(context.Background(), prog)
}

// CompileTSAContext builds and verifies the SafeTSA module for a checked
// program. A verifier rejection here is a producer bug, not a user error.
func CompileTSAContext(ctx context.Context, prog *sema.Program) (*core.Module, error) {
	return compileTSA(ctx, prog, new(ssabuild.Arena))
}

func compileTSA(ctx context.Context, prog *sema.Program, ba *ssabuild.Arena) (*core.Module, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, bsp := obs.Start(ctx, "build")
	mod, err := ba.Build(prog)
	bsp.End()
	if err != nil {
		return nil, wrapKind(KindInternal, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, vsp := obs.Start(ctx, "verify")
	err = mod.Verify(core.VerifyOptions{})
	vsp.End()
	if err != nil {
		return nil, wrapKind(KindInternal, fmt.Errorf("safetsa verifier: %w", err))
	}
	if err := shippable(mod); err != nil {
		return nil, err
	}
	return mod, nil
}

// shippable refuses a module that verifies but that no consumer would
// admit: one whose CST nests deeper than the wire format carries
// (core.MaxCSTDepth), the program's fault, reported as the parser's own
// nesting bound is. Every producer stage that can change the module
// checks again.
func shippable(mod *core.Module) error {
	return wrapKind(KindParse, mod.CheckCSTDepth())
}

// CompileTSASource is the one-call helper: source text → verified module.
func CompileTSASource(files map[string]string) (*core.Module, error) {
	prog, err := Frontend(files)
	if err != nil {
		return nil, err
	}
	return CompileTSA(prog)
}

// OptimizeModule runs the producer-side optimizer and re-verifies the
// module, returning the optimization statistics.
func OptimizeModule(mod *core.Module) (opt.Stats, error) {
	return OptimizeModuleOptions(context.Background(), mod, opt.Options{})
}

// OptimizeModuleOptions runs the optimizer tier the options select
// (intraprocedural by default, interprocedural with ModuleLevel) and
// re-verifies the module.
func OptimizeModuleOptions(ctx context.Context, mod *core.Module, o opt.Options) (opt.Stats, error) {
	return optimize(ctx, mod, o, opt.PipelineFor(o))
}

func optimize(ctx context.Context, mod *core.Module, o opt.Options, passes []opt.Pass) (opt.Stats, error) {
	if err := ctx.Err(); err != nil {
		return opt.Stats{}, err
	}
	_, osp := obs.Start(ctx, "passes")
	st, _ := opt.RunPasses(mod, o, passes, nil) // with no after hook it cannot fail
	osp.End()
	_, vsp := obs.Start(ctx, "verify")
	err := mod.Verify(core.VerifyOptions{})
	vsp.End()
	if err != nil {
		return st, wrapKind(KindInternal, fmt.Errorf("safetsa verifier after optimization: %w", err))
	}
	return st, shippable(mod)
}

// CompileTSASourceOpt compiles and optimizes in one call.
func CompileTSASourceOpt(files map[string]string) (*core.Module, opt.Stats, error) {
	mod, err := CompileTSASource(files)
	if err != nil {
		return nil, opt.Stats{}, err
	}
	st, err := OptimizeModule(mod)
	return mod, st, err
}

// CompileBytecode builds the baseline stack-bytecode program.
func CompileBytecode(prog *sema.Program) (*bytecode.Program, error) {
	return bytecode.Compile(prog)
}

// budget is what every guest this package runs may take: the caller's
// step bound and a fixed allocation budget, in rt.Env's abstract units.
// The step budget alone does not bound memory: a loop that doubles a
// string reaches gigabytes in a few dozen steps. The allocation budget is
// a constant, not a knob: the one the repository benchmark runs its
// guests under, four orders of magnitude above what any corpus program
// allocates.
func budget(maxSteps int64) rt.Budget {
	return rt.Budget{MaxSteps: maxSteps, MaxAlloc: 64 << 20}
}

// RunBytecode links and executes a bytecode program's main, returning its
// printed output.
func RunBytecode(p *bytecode.Program, maxSteps int64) (string, error) {
	var out bytes.Buffer
	env := rt.NewEnv(&out, budget(maxSteps), nil)
	vm, err := bytecode.NewVM(p, env)
	if err != nil {
		return out.String(), err
	}
	err = vm.RunMain()
	return out.String(), err
}

// Names of the three evaluators inside internal/interp, as the oracles
// label them. RunModuleEngine and safetsarun -engine accept only the
// served one (compiled) and the reference; the prepared register machine
// is run by the differential oracles alone.
const (
	EngineReference = "reference"
	EnginePrepared  = "prepared"
	EngineCompiled  = "compiled"
)

// RunModule loads and executes a module's main method on the reference
// walker, returning its printed output. maxSteps bounds execution (0 =
// unlimited); allocation is always bounded (see budget).
func RunModule(mod *core.Module, maxSteps int64) (string, error) {
	return RunModuleEngine(context.Background(), mod, maxSteps, EngineReference)
}

// RunModuleEngine runs mod's main on the named engine: "compiled" (also
// the default for ""), the one the daemon serves, lowered as the daemon
// lowers it — each function when the guest first calls it — or
// "reference", the CST walker the compiled engine is tested against.
// Cancelling ctx interrupts the guest at the next step-budget check.
// Load/link failures, and a body the verifier admitted and lowering
// refuses (errors.ErrUnsupported, as the daemon's verdict reads it), are
// tagged KindVerify (the unit is at fault); execution failures
// KindRuntime.
func RunModuleEngine(ctx context.Context, mod *core.Module, maxSteps int64, engine string) (string, error) {
	if engine != "" && engine != EngineCompiled && engine != EngineReference {
		return "", wrapKind(KindParse, fmt.Errorf("unknown engine %q (want %q or %q)",
			engine, EngineCompiled, EngineReference))
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return "", wrapKind(KindVerify, fmt.Errorf("interp: module rejected by verifier: %w", err))
	}
	var (
		out bytes.Buffer
		l   *interp.Loader
		err error
	)
	env := rt.NewEnv(&out, budget(maxSteps), ctx.Done())
	if engine == EngineReference {
		l, err = interp.LoadTrusted(mod, env)
	} else {
		l, err = interp.LoadTrustedCompiled(mod, interp.Lazy(mod), env)
	}
	if err != nil {
		return out.String(), wrapKind(KindVerify, err)
	}
	if err := l.RunMain(); err != nil {
		if errors.Is(err, errors.ErrUnsupported) {
			return out.String(), wrapKind(KindVerify, err)
		}
		return out.String(), wrapKind(KindRuntime, err)
	}
	return out.String(), nil
}
