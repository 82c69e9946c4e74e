// Package oracle is the shared correctness-oracle infrastructure behind
// the repo's native fuzzing harnesses (go test -fuzz) and the
// differential test suites. It packages the paper's security and
// fidelity claims as executable invariants:
//
//   - Wire admission (§2/§9): arbitrary bytes pushed through
//     wire.DecodeModule either fail cleanly or yield a module the core
//     verifier accepts — a decoded-but-ill-formed module is an invariant
//     violation, never a fuzz "expected failure". Accepted modules must
//     then execute under step and allocation budgets without crashing
//     the host.
//   - Canonical wire form: encode → decode → re-encode is byte-identical,
//     so a distribution unit has exactly one on-the-wire spelling.
//   - Per-pass verification (metamorphic): the consumer verifier must
//     accept the module after every individual producer optimization
//     pass, not merely after the full -O pipeline.
//   - Four-pipeline differential: the bytecode VM, the plain SafeTSA
//     evaluator, the optimized SafeTSA evaluator, and the wire round
//     trip must print identical output for the same program.
//   - Execution-engine equivalence: every admissible module behaves
//     identically on the reference CST evaluator, the prepared register
//     machine, and the compiled engine — output,
//     errors, budget drain, kill reason, and final heap.
//
// Every function returns nil for "behaved as specified" (including clean
// rejections of bad input) and a descriptive error for an invariant
// violation; harnesses simply t.Fatal on non-nil.
package oracle

import (
	"bytes"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// Budgets bounds guest execution inside the oracles. A zero field picks
// a default suitable for fuzzing (small enough that a hostile module
// cannot stall or bloat the harness, large enough that every corpus
// program finishes), never "unlimited".
type Budgets = rt.Budget

func orDefaults(b Budgets) Budgets {
	if b.MaxSteps == 0 {
		b.MaxSteps = 1 << 20
	}
	if b.MaxAlloc == 0 {
		b.MaxAlloc = 1 << 22
	}
	return b
}

// CheckWire is the referential-integrity property of the paper as an
// executable invariant: data is arbitrary (typically fuzzer-chosen)
// bytes. A malformed stream must be rejected cleanly (nil result); a
// stream that decodes must yield a verifier-clean module in canonical
// wire form, and executing that module under the budgets must terminate
// without panicking the host. Guest-level failures (uncaught exceptions,
// budget exhaustion) are legal outcomes.
//
// "Decodes ⇒ the verifier accepts" has two halves. The typing half —
// arity, operand planes, result plane, every opcode side condition, the
// CST reference planes, the link rule — holds by construction: the
// decoder reads each instruction through the same core.Module.Signature
// the verifier checks with, and takes each function's method and
// signature from the claim of the same core.Admission, so the Verify
// call below cannot fail there. The
// structural half — every operand's definition dominates its use, phi
// arity matches the incoming edges, phi operands are available on their
// edge, CST references are available at their block — is enforced in
// the decoder by its (l, r) alphabets, and DecodeModule calls no rule;
// for that half Verify's walker is still an independent check.
// CheckAdmission holds the verifying decoder, which calls the rules as it
// reads, to the same verdict.
func CheckWire(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection is the specified behavior
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	// The input spelling need not be canonical (trailing bytes, etc.),
	// but one encode must reach the fixed point immediately.
	if err := CheckCanonicalWire(mod); err != nil {
		return err
	}
	_, _ = runBounded(mod, b)
	return nil
}

// CheckAdmission holds admission's two drivers to one verdict on any
// byte string: the decoder that calls each core.Rules rule as it reads
// the item (wire.DecodeVerified) admits data exactly when the decoder
// alone decodes it (wire.DecodeModule) and the self-checking walker
// (core.Module.Verify) accepts what it decoded — and then the two read
// the same module. A rule the decoding walk skipped, or fed a fact that
// is not the one the walker works out, shows here as a unit one driver
// admits and the other refuses.
func CheckAdmission(data []byte) error {
	admitted, verr := wire.DecodeVerified(data)
	mod, derr := wire.DecodeModule(data)
	var werr error
	if derr == nil {
		werr = mod.Verify(core.VerifyOptions{})
	}
	switch {
	case verr == nil && derr != nil:
		return fmt.Errorf("oracle: DecodeVerified admitted a unit DecodeModule refuses: %w", derr)
	case verr == nil && werr != nil:
		return fmt.Errorf("oracle: DecodeVerified admitted a unit the verifier rejects: %w", werr)
	case verr != nil && derr == nil && werr == nil:
		return fmt.Errorf("oracle: DecodeVerified refused a unit the verifier accepts: %w", verr)
	case verr == nil && admitted.Dump() != mod.Dump():
		return fmt.Errorf("oracle: DecodeVerified and DecodeModule read different modules")
	}
	return nil
}

// runBounded loads and runs a verified module under budgets; the
// (output, error) pair reports the guest-visible outcome. Host panics
// propagate — the caller (a fuzz harness) wants them fatal.
func runBounded(mod *core.Module, b Budgets) (string, error) {
	b = orDefaults(b)
	var out bytes.Buffer
	env := rt.NewEnv(&out, b, nil)
	l, err := interp.LoadTrusted(mod, env)
	if err != nil {
		return out.String(), err
	}
	if mod.Entry < 0 {
		return out.String(), nil
	}
	err = l.RunMain()
	return out.String(), err
}

// CheckCanonicalWire asserts the canonical-form invariant on a verified
// module: encoding it, decoding the bytes, and encoding again must
// reproduce the first byte string exactly, and the decoded module must be
// structurally identical to the input. This is what makes the
// content-addressed store sound — one module, one hash — and what makes
// the bytes mean the module the producer optimized.
func CheckCanonicalWire(mod *core.Module) error {
	return checkCanonical(mod, nil, "", wire.EncodeModule)
}

// checkCanonical is the round trip of both wire versions: encode's bytes
// decoded with dict, version prefixing the messages.
func checkCanonical(mod *core.Module, dict *wire.Dictionary, version string, encode func(*core.Module) []byte) error {
	first := encode(mod)
	dec, err := wire.DecodeModuleOpts(first, wire.DecodeOptions{Dict: dict})
	if err != nil {
		return fmt.Errorf("oracle: %sencoded module does not decode: %w", version, err)
	}
	if err := dec.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: %sre-decoded module rejected by verifier: %w", version, err)
	}
	second := encode(dec)
	if !bytes.Equal(first, second) {
		return fmt.Errorf("oracle: %swire form is not canonical: re-encoding %d bytes yielded %d different bytes",
			version, len(first), len(second))
	}
	if mod.Dump() != dec.Dump() {
		return fmt.Errorf("oracle: %sround trip is not structure-preserving", version)
	}
	return nil
}

// CheckFrontend pushes arbitrary source bytes through the scanner,
// parser, and semantic checker. Diagnostics are the specified behavior;
// the invariant is only that the front end neither panics nor runs away
// (the fuzz driver supplies the wall clock, the harness caps the input
// size). This is the regression net for scanner/parser hangs on
// adversarial input.
func CheckFrontend(src []byte) error {
	_, _ = driver.Frontend(map[string]string{"Fuzz.tj": string(src)})
	return nil
}

// OptimizePerPass runs the producer optimizer over mod, re-running the
// consumer verifier after each individual pass (the metamorphic oracle:
// no intermediate pipeline state may be unverifiable, because a producer
// that stops after any prefix of the pipeline must still emit admissible
// units).
func OptimizePerPass(mod *core.Module) (opt.Stats, error) {
	return RunPassesVerified(mod, opt.Pipeline())
}

// OptimizeModulePerPass runs the full interprocedural pipeline
// (devirtualization and inlining on top of the intraprocedural passes)
// under the same per-pass verification.
func OptimizeModulePerPass(mod *core.Module) (opt.Stats, error) {
	return RunPassesVerifiedOptions(mod, opt.Options{ModuleLevel: true}, opt.ModulePipeline())
}

// RunPassesVerified applies an arbitrary pass sequence with the consumer
// verifier as the after-each-pass oracle; the returned error names the
// first pass whose output it rejects.
func RunPassesVerified(mod *core.Module, passes []opt.Pass) (opt.Stats, error) {
	return RunPassesVerifiedOptions(mod, opt.Options{}, passes)
}

// RunPassesVerifiedOptions is RunPassesVerified with the optimizer
// options threaded through to every pass.
func RunPassesVerifiedOptions(mod *core.Module, o opt.Options, passes []opt.Pass) (opt.Stats, error) {
	return opt.RunPasses(mod, o, passes, func(pass string) error {
		if err := mod.Verify(core.VerifyOptions{}); err != nil {
			return fmt.Errorf("oracle: verifier rejects module after pass %q: %w", pass, err)
		}
		return nil
	})
}

// Differential compiles files through all four pipelines — bytecode VM,
// plain SafeTSA, per-pass-verified optimized SafeTSA, and the wire round
// trip of the optimized module — and requires identical printed output
// everywhere; the plain module must round-trip the wire as well. It
// returns that output on success. Any compile failure, verifier
// rejection, runtime failure, or divergence is an error: the inputs are
// expected to be valid programs (generated corpus or checked-in seeds),
// so nothing here is a "clean rejection".
func Differential(files map[string]string, b Budgets) (string, error) {
	b = orDefaults(b)
	prog, err := driver.Frontend(files)
	if err != nil {
		return "", fmt.Errorf("oracle: frontend: %w", err)
	}

	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		return "", fmt.Errorf("oracle: bytecode compile: %w", err)
	}
	if err := bc.Verify(); err != nil {
		return "", fmt.Errorf("oracle: bytecode verify: %w", err)
	}
	want, err := driver.RunBytecode(bc, b.MaxSteps)
	if err != nil {
		return want, fmt.Errorf("oracle: bytecode run: %w", err)
	}

	mod, err := driver.CompileTSA(prog)
	if err != nil {
		return want, fmt.Errorf("oracle: safetsa compile: %w", err)
	}
	got, err := runBounded(mod, b)
	if err != nil {
		return want, fmt.Errorf("oracle: plain SafeTSA run: %w", err)
	}
	if got != want {
		return want, divergence("plain SafeTSA", want, got)
	}
	// The unoptimized module is a distribution unit too (safetsac without
	// -O): what the builder holds and what a consumer derives from its
	// wire image must be the same module before any pass has run.
	if err := CheckCanonicalWire(mod); err != nil {
		return want, fmt.Errorf("plain SafeTSA: %w", err)
	}

	if _, err := OptimizePerPass(mod); err != nil {
		return want, err
	}
	got, err = runBounded(mod, b)
	if err != nil {
		return want, fmt.Errorf("oracle: optimized SafeTSA run: %w", err)
	}
	if got != want {
		return want, divergence("optimized SafeTSA", want, got)
	}

	if err := CheckCanonicalWire(mod); err != nil {
		return want, err
	}
	dec, err := wire.DecodeVerified(wire.EncodeModule(mod))
	if err != nil {
		return want, fmt.Errorf("oracle: wire round trip: %w", err)
	}
	got, err = runBounded(dec, b)
	if err != nil {
		return want, fmt.Errorf("oracle: wire round-trip run: %w", err)
	}
	if got != want {
		return want, divergence("wire round trip", want, got)
	}
	return want, nil
}

// engineRun is the observable outcome of one oracle session: printed
// bytes, error, budget drain, and the loader that owns the final heap.
type engineRun struct {
	out bytes.Buffer
	env *rt.Env
	l   *interp.Loader
	err error
}

// release ends a session the oracle has compared, as the server ends one
// it has answered, so the sessions it runs next are carved from this
// one's recycled memory — which core.PoisonRecycled, on for this package's
// tests, fills with junk first.
func (r *engineRun) release() {
	if r.l != nil {
		r.l.Release()
	}
}

// PreparedDifferential is the execution-engine equivalence oracle: any
// byte string that decodes and verifies (i.e. passes wire admission)
// must behave identically on the reference CST evaluator, the prepared
// register machine, and the compiled engine —
// byte-identical output, identical error text and KillReason, identical
// cumulative step/alloc budget drain, and an identical final
// reachable-heap checksum. A verified module that fails to Prepare or
// Compile is itself a violation: both lowerings are total on admissible
// modules.
func PreparedDifferential(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection, same contract as CheckWire
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	_, err = engineParity(mod, b)
	return err
}

// engineLazy names the compiled engine over a form filled on first call
// (interp.Lazy), the one the run doors serve, as a column beside the
// eagerly compiled one.
const engineLazy = "lazy"

// engineParity runs a verified module on all three engines — the compiled
// one over both schedules of its form — holds every session to the
// reference session bit-exactly, releasing each once compared, and
// returns the reference session, unreleased, for further comparison.
func engineParity(mod *core.Module, b Budgets) (*engineRun, error) {
	prep, err := interp.Prepare(mod)
	if err != nil {
		return nil, fmt.Errorf("oracle: verified module fails to prepare: %w", err)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		return nil, fmt.Errorf("oracle: prepared module fails to compile: %w", err)
	}
	b = orDefaults(b)

	run := func(engine string) *engineRun {
		r := &engineRun{}
		r.env = rt.NewEnv(&r.out, b, nil)
		switch engine {
		case driver.EnginePrepared:
			r.l, r.err = interp.LoadTrustedPrepared(mod, prep, r.env)
		case driver.EngineCompiled:
			r.l, r.err = interp.LoadTrustedCompiled(mod, comp, r.env)
		case engineLazy:
			r.l, r.err = interp.LoadTrustedCompiled(mod, interp.Lazy(mod), r.env)
		default:
			r.l, r.err = interp.LoadTrusted(mod, r.env)
		}
		if r.err != nil || mod.Entry < 0 {
			return r
		}
		r.err = r.l.RunMain()
		return r
	}
	ref := run(driver.EngineReference)
	for _, engine := range []string{driver.EnginePrepared, driver.EngineCompiled, engineLazy} {
		got := run(engine)
		err := compareEngineRuns(engine, ref, got)
		got.release()
		if err != nil {
			return ref, err
		}
	}
	return ref, nil
}

// ModuleDifferential is the interprocedural-optimizer oracle: any byte
// string that decodes and verifies must (a) pass three-engine parity as
// it arrived, (b) survive the full module-level pipeline with the
// verifier accepting every intermediate state, (c) still be in canonical
// wire form afterwards, (d) pass three-engine parity again, and (e) —
// when neither session was killed by a budget — print the same bytes,
// fail with the same error, and leave the same reachable heap as the
// untransformed module. Budget drain is deliberately not compared across
// the tiers: spending fewer steps is the point of the optimizer, and a
// kill truncates output at a tier-dependent instant.
func ModuleDifferential(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection, same contract as CheckWire
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	base, err := engineParity(mod, b)
	if err != nil {
		return err
	}
	tmod, err := wire.DecodeModule(data)
	if err != nil {
		return fmt.Errorf("oracle: second decode of accepted bytes failed: %w", err)
	}
	if _, err := OptimizeModulePerPass(tmod); err != nil {
		return err
	}
	if err := CheckCanonicalWire(tmod); err != nil {
		return err
	}
	after, err := engineParity(tmod, b)
	if err != nil {
		return err
	}
	if rt.KillReason(base.err) != "" || rt.KillReason(after.err) != "" {
		return nil
	}
	if !bytes.Equal(base.out.Bytes(), after.out.Bytes()) {
		return fmt.Errorf("oracle: module passes change output:\nbefore: %q\nafter:  %q",
			base.out.String(), after.out.String())
	}
	baseMsg, afterMsg := "", ""
	if base.err != nil {
		baseMsg = base.err.Error()
	}
	if after.err != nil {
		afterMsg = after.err.Error()
	}
	if baseMsg != afterMsg {
		return fmt.Errorf("oracle: module passes change the error:\nbefore: %q\nafter:  %q", baseMsg, afterMsg)
	}
	if base.l != nil && after.l != nil {
		if bh, ah := base.l.HeapChecksum(), after.l.HeapChecksum(); bh != ah {
			return fmt.Errorf("oracle: module passes change the reachable heap: %#x vs %#x", bh, ah)
		}
	}
	return nil
}

// compareEngineRuns holds one engine's session to the reference
// session's observables, bit-exactly.
func compareEngineRuns(engine string, ref, got *engineRun) error {
	if !bytes.Equal(ref.out.Bytes(), got.out.Bytes()) {
		return fmt.Errorf("oracle: %s engine output diverges:\nreference: %q\n%s: %q",
			engine, ref.out.String(), engine, got.out.String())
	}
	refMsg, gotMsg := "", ""
	if ref.err != nil {
		refMsg = ref.err.Error()
	}
	if got.err != nil {
		gotMsg = got.err.Error()
	}
	if refMsg != gotMsg {
		return fmt.Errorf("oracle: %s engine error diverges:\nreference: %q\n%s: %q",
			engine, refMsg, engine, gotMsg)
	}
	if rk, gk := rt.KillReason(ref.err), rt.KillReason(got.err); rk != gk {
		return fmt.Errorf("oracle: %s engine kill reason diverges: reference %q, %s %q", engine, rk, engine, gk)
	}
	if ref.env.Steps != got.env.Steps || ref.env.Allocs != got.env.Allocs {
		return fmt.Errorf("oracle: %s engine budget drain diverges: reference %d steps/%d allocs, %s %d steps/%d allocs",
			engine, ref.env.Steps, ref.env.Allocs, engine, got.env.Steps, got.env.Allocs)
	}
	if ref.l != nil && got.l != nil {
		if rh, gh := ref.l.HeapChecksum(), got.l.HeapChecksum(); rh != gh {
			return fmt.Errorf("oracle: %s engine heap diverges: reference %#x, %s %#x", engine, rh, engine, gh)
		}
	}
	return nil
}

func divergence(pipeline, want, got string) error {
	return fmt.Errorf("oracle: %s diverges from bytecode baseline:\nbytecode: %q\n%s: %q",
		pipeline, want, pipeline, got)
}
