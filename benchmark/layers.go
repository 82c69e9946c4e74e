package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
	"safetsa/internal/wire"
)

// defaultEngine is the engine a request that names none runs on today.
// The HTTP and direct paths never name an engine, so they follow the
// server's default wherever it goes; the library replay has to pick
// one, and codeserver.self_us shows the gap if the two ever part.
const defaultEngine = "prepared"

// layerRun collects, per span name and pass, the duration and
// allocation count of every span recorded through stage.
type layerRun struct {
	tr      *tracer
	pass    int
	op      int
	ns      map[string][][]float64
	mallocs map[string][][]float64
	// leafNs sums the durations added since the caller last reset it.
	leafNs float64
}

func newLayerRun(tr *tracer) *layerRun {
	return &layerRun{tr: tr, ns: map[string][][]float64{}, mallocs: map[string][][]float64{}}
}

func (l *layerRun) add(name string, ns, mallocs float64) {
	for len(l.ns[name]) <= l.pass {
		l.ns[name] = append(l.ns[name], nil)
		l.mallocs[name] = append(l.mallocs[name], nil)
	}
	l.ns[name][l.pass] = append(l.ns[name][l.pass], ns)
	l.mallocs[name][l.pass] = append(l.mallocs[name][l.pass], mallocs)
	l.leafNs += ns
}

// stage runs one call into a layer inside its own span.
func stage[T any](l *layerRun, name string, fn func() (T, error)) (T, error) {
	id := l.tr.begin(name, l.op, true)
	v, err := fn()
	s := l.tr.end(id)
	l.add(name, float64(s.dur()), float64(s.Mallocs))
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return v, err
}

// step is stage for a call that returns only an error.
func step(l *layerRun, name string, fn func() error) error {
	_, err := stage(l, name, func() (struct{}, error) { return struct{}{}, fn() })
	return err
}

// call1 and call2 bind arguments, so a stage can return a value whose
// type the benchmark has no reason to name (the front end's program).
func call1[A, T any](f func(A) (T, error), a A) func() (T, error) {
	return func() (T, error) { return f(a) }
}

func call2[A, B, T any](f func(A, B) (T, error), a A, b B) func() (T, error) {
	return func() (T, error) { return f(a, b) }
}

// over reduces a span name to one number: reduce over the samples of
// each pass, then the median over passes.
func over(perPass [][]float64, reduce func([]float64) float64) float64 {
	var v []float64
	for _, xs := range perPass {
		v = append(v, reduce(xs))
	}
	return median(v)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func (l *layerRun) meanMs(name string) float64  { return over(l.ns[name], mean) / 1e6 }
func (l *layerRun) meanUs(name string) float64  { return over(l.ns[name], mean) / 1e3 }
func (l *layerRun) geoUs(name string) float64   { return over(l.ns[name], geomean) / 1e3 }
func (l *layerRun) totalNs(name string) float64 { return over(l.ns[name], sum) }
func (l *layerRun) allocs(name string) float64  { return over(l.mallocs[name], mean) }

// family folds the numbered repeats of an optimizer pass into its name.
func family(pass string) string { return strings.TrimRight(pass, "0123456789") }

// buildAt compiles sources to a verified module at an optimizer tier
// (0: none, 1: intraprocedural, 2: interprocedural), outside any span.
func buildAt(files map[string]string, tier int) (*core.Module, error) {
	mod, err := driver.CompileTSASource(files)
	if err != nil || tier == 0 {
		return mod, err
	}
	_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: tier == 2})
	return mod, err
}

func newEnv(out *bytes.Buffer) *rt.Env {
	return &rt.Env{Out: out, MaxSteps: guestMaxSteps, MaxAlloc: guestMaxAllocs}
}

// session starts a session of the named engine with static
// initialization still to run.
func session(engine string, mod *core.Module, prep *interp.Prepared, comp *interp.Compiled, env *rt.Env) (*interp.Loader, error) {
	switch engine {
	case "prepared":
		return interp.LoadTrustedDeferred(mod, prep, nil, env)
	case "compiled":
		return interp.LoadTrustedDeferred(mod, nil, comp, env)
	}
	return interp.LoadTrustedDeferred(mod, nil, nil, env)
}

func wantOutput(p *program, what, got string) error {
	if got != p.want {
		return fmt.Errorf("%s of %s printed %q, reference says %q", what, p.name, got, p.want)
	}
	return nil
}

// layerPass replays the inputs stage by stage through each layer's
// public functions, each call in its own span, and reduces the spans to
// the library-layer metrics. It covers what the service under test does
// not: the O0 and O1 tiers, wire v1, the two engines the server does
// not default to, and the stack-bytecode baseline of the paper's
// comparisons. It is the same for every workload.
func layerPass(tr *tracer, in *inputs, passes int) (map[string]float64, error) {
	l := newLayerRun(tr)
	m := map[string]float64{}
	isSmall := map[*program]bool{}
	for _, p := range in.uSmall {
		isSmall[p] = true
	}
	var o2mods []*core.Module
	var srcBytes, verifyInstrs float64

	for l.pass = 0; l.pass < passes; l.pass++ {
		for i, p := range in.u {
			l.op = -(1 + l.pass*len(in.all) + i)
			root := tr.begin("layers.unit", l.op, false)
			mod, err := l.producer(p, m)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			decoded, err := l.transport(p, mod, m)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			if isSmall[p] {
				if err := l.shortSessions(p, decoded); err != nil {
					return nil, err
				}
			}
			if l.pass == 0 {
				o2mods = append(o2mods, mod)
				srcBytes += float64(p.srcLen)
				verifyInstrs += float64(decoded.NumInstrs())
			}
			tr.end(root)
		}
		for i, p := range in.g {
			l.op = -(1 + l.pass*len(in.all) + len(in.u) + i)
			root := tr.begin("layers.guest", l.op, false)
			if err := l.guestRuns(p, m); err != nil {
				return nil, err
			}
			tr.end(root)
		}
	}

	dict := wire.TrainDictionary(o2mods)
	for _, mod := range o2mods {
		m["wire.v2_dict_bytes"] += float64(len(wire.EncodeModuleV2(mod, dict)))
	}

	m["lang.frontend_ms"] = l.meanMs("lang.frontend")
	m["lang.src_mb_per_s"] = srcBytes / 1e6 / (l.totalNs("lang.frontend") / 1e9)
	m["lang.allocs_per_unit"] = l.allocs("lang.frontend")
	m["ssabuild.build_ms"] = l.meanMs("ssabuild.build")
	m["ssabuild.allocs_per_unit"] = l.allocs("ssabuild.build")
	m["opt.o1_ms"] = l.meanMs("opt.o1")
	m["opt.o2_ms"] = l.meanMs("opt.o2")
	m["opt.allocs_per_unit"] = l.allocs("opt.o2")
	for _, p := range passNames {
		// A pass runs up to three times per unit; the row is its total
		// per unit, so the six rows add up to the traced pipeline.
		m["opt.pass."+p+"_ms"] = l.totalNs("opt.pass."+p) / float64(len(in.u)) / 1e6
	}
	for _, s := range []string{"encode_v1", "encode_v2", "decode_v1", "decode_v2"} {
		m["wire."+s+"_ms"] = l.meanMs("wire." + s)
	}
	m["wire.decode_v2_mb_per_s"] = m["wire.v2_bytes"] / 1e6 / (l.totalNs("wire.decode_v2") / 1e9)
	m["wire.decode_allocs_per_unit"] = l.allocs("wire.decode_v2")
	m["wire.stream_ttfi_ms"] = l.meanMs("wire.stream_ttfi")
	m["wire.stream_full_ms"] = l.meanMs("wire.stream_full")
	m["core.verify_ms"] = l.meanMs("core.verify")
	m["core.verify_ns_per_instr"] = l.totalNs("core.verify") / verifyInstrs
	m["core.verify_allocs_per_unit"] = l.allocs("core.verify")
	m["bytecode.verify_ms"] = l.meanMs("bytecode.verify")
	m["codeserver.keyfor_us"] = l.meanUs("codeserver.keyfor")
	m["interp.prepare_ms"] = l.meanMs("interp.prepare")
	m["interp.compile_ms"] = l.meanMs("interp.compile")
	for _, s := range []string{"load", "static_init", "snapshot_build", "snapshot_clone"} {
		m["interp."+s+"_us"] = l.meanUs("interp." + s)
	}
	m["interp.session_allocs"] = l.allocs("interp.short_session." + defaultEngine)
	for _, e := range engines {
		m["interp.short_session_us."+e] = l.geoUs("interp.short_session." + e)
		m["interp.run_ms."+e] = l.geoUs("interp.run_main."+e) / 1e3
		m["interp.steps_per_us."+e] = over(l.ns["steps_per_us."+e], geomean)
	}
	return m, nil
}

// producer takes one program through the producer side: front end,
// SSA construction, both optimizer tiers. It returns the O2 module and
// adds the exact counts to m on the first pass.
func (l *layerRun) producer(p *program, m map[string]float64) (*core.Module, error) {
	first := l.pass == 0
	prog, err := stage(l, "lang.frontend", call2(driver.FrontendContext, context.Background(), p.files))
	if err != nil {
		return nil, err
	}
	mod, err := stage(l, "ssabuild.build", call1(ssabuild.Build, prog))
	if err != nil {
		return nil, err
	}
	if first {
		m["ssabuild.instrs_out"] += float64(mod.NumInstrs())
	}
	_, _ = stage(l, "codeserver.keyfor", func() (codeserver.Key, error) {
		return codeserver.KeyFor(p.files, producerOptions), nil
	})

	// The optimizer works in place, so each tier gets its own build.
	m1, err := ssabuild.Build(prog)
	if err != nil {
		return nil, err
	}
	st1, err := stage(l, "opt.o1", func() (opt.Stats, error) {
		return opt.RunPasses(m1, opt.Options{}, opt.Pipeline(), nil)
	})
	if err != nil {
		return nil, err
	}

	o2 := opt.Options{ModuleLevel: true}
	st2, err := stage(l, "opt.o2", func() (opt.Stats, error) {
		return opt.RunPasses(mod, o2, opt.PipelineFor(o2), nil)
	})
	if err != nil {
		return nil, err
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return nil, fmt.Errorf("verify after O2: %w", err)
	}

	// Per-pass times come from a second O2 run, so that closing a span
	// between passes is not charged to opt.o2 above.
	m2, err := ssabuild.Build(prog)
	if err != nil {
		return nil, err
	}
	pipeline := opt.PipelineFor(o2)
	next := 0
	open := func() int {
		id := l.tr.begin("opt.pass."+family(pipeline[next].Name), l.op, true)
		next++
		return id
	}
	outer := l.tr.begin("opt.passes", l.op, false)
	cur := open()
	_, err = opt.RunPasses(m2, o2, pipeline, func(string) error {
		s := l.tr.end(cur)
		l.add(s.Name, float64(s.dur()), float64(s.Mallocs))
		if next < len(pipeline) {
			cur = open()
		}
		return nil
	})
	l.tr.end(outer)
	if err != nil {
		return nil, err
	}

	if first {
		m["opt.instrs_after_o1"] += float64(st1.InstrsAfter)
		m["opt.instrs_after_o2"] += float64(st2.InstrsAfter)
		m["opt.phis_removed"] += float64(st2.PhisBefore - st2.PhisAfter)
		m["opt.null_checks_removed"] += float64(st2.NullChecksBefore - st2.NullChecksAfter)
		m["opt.index_checks_removed"] += float64(st2.ArrayChecksBefore - st2.ArrayChecksAfter)
		m["opt.devirtualized"] += float64(st2.Devirtualized)
		m["opt.inlined"] += float64(st2.Inlined)
		m["opt.checks_elided"] += float64(st2.ChecksElided)
		m["opt.exc_edges_pruned"] += float64(st2.ExcEdgesPruned)
	}

	// The stack-bytecode baseline of the paper's size and verification
	// comparisons.
	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		return nil, err
	}
	if first {
		m["bytecode.bytes"] += float64(bc.SerializedSize())
	}
	return mod, step(l, "bytecode.verify", bc.Verify)
}

// transport takes an O2 module through both wire versions, the
// streaming decoder and the consumer's verifier, and returns the module
// as a consumer holds it: decoded from wire v2.
func (l *layerRun) transport(p *program, mod *core.Module, m map[string]float64) (*core.Module, error) {
	encode := func(name string, enc func() []byte) []byte {
		data, _ := stage(l, name, func() ([]byte, error) { return enc(), nil })
		return data
	}
	v1 := encode("wire.encode_v1", func() []byte { return wire.EncodeModule(mod) })
	v2 := encode("wire.encode_v2", func() []byte { return wire.EncodeModuleV2(mod, nil) })
	if l.pass == 0 {
		m["wire.v1_bytes"] += float64(len(v1))
		m["wire.v2_bytes"] += float64(len(v2))
	}
	if _, err := stage(l, "wire.decode_v1", call1(wire.DecodeModule, v1)); err != nil {
		return nil, err
	}
	decoded, err := stage(l, "wire.decode_v2", call1(wire.DecodeModule, v2))
	if err != nil {
		return nil, err
	}

	// Time to first instruction is marked inside the stream's span
	// without closing a span of its own: reading the allocation
	// counters there would stall the decoder's goroutine.
	var entry time.Duration
	id := l.tr.begin("wire.stream_full", l.op, true)
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(v2), wire.DecodeOptions{})
	if err == nil {
		err = su.WaitEntry()
		entry = l.tr.since(id)
	}
	if err == nil {
		err = su.Wait()
	}
	s := l.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("wire.stream: %w", err)
	}
	l.add(s.Name, float64(s.dur()), float64(s.Mallocs))
	l.add("wire.stream_ttfi", float64(entry), 0)
	l.tr.mark("wire.stream_ttfi", id, entry)

	err = step(l, "core.verify", func() error { return decoded.Verify(core.VerifyOptions{}) })
	return decoded, err
}

// shortSessions takes a decoded unit through the consumer's load-time
// stages and one fresh session per engine.
func (l *layerRun) shortSessions(p *program, mod *core.Module) error {
	prep, err := stage(l, "interp.prepare", call1(interp.Prepare, mod))
	if err != nil {
		return err
	}
	comp, err := stage(l, "interp.compile", call2(interp.Compile, mod, prep))
	if err != nil {
		return err
	}

	var out bytes.Buffer
	ld, err := stage(l, "interp.load", func() (*interp.Loader, error) {
		return session(defaultEngine, mod, prep, comp, newEnv(&out))
	})
	if err != nil {
		return err
	}
	if err := step(l, "interp.static_init", ld.RunStaticInit); err != nil {
		return err
	}
	snap, err := stage(l, "interp.snapshot_build", func() (*interp.Snapshot, error) {
		snap, err := ld.Snapshot(out.Bytes())
		if err != nil {
			return nil, err
		}
		return snap, snap.Verify()
	})
	if err != nil {
		return err
	}
	var cloneOut bytes.Buffer
	if _, err := stage(l, "interp.snapshot_clone", call1(snap.NewSession, newEnv(&cloneOut))); err != nil {
		return err
	}

	for _, e := range engines {
		var out bytes.Buffer
		err := step(l, "interp.short_session."+e, func() error {
			ld, err := session(e, mod, prep, comp, newEnv(&out))
			if err == nil {
				err = ld.RunStaticInit()
			}
			if err == nil {
				err = ld.RunMain()
			}
			return err
		})
		if err == nil {
			err = wantOutput(p, e+" session", out.String())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// guestRuns times RunMain of one compute guest on each engine, and on
// the first pass counts its steps at each optimizer tier.
func (l *layerRun) guestRuns(p *program, m map[string]float64) error {
	rs, err := resident(p)
	if err != nil {
		return err
	}
	for _, e := range engines {
		var out bytes.Buffer
		env := newEnv(&out)
		ld, err := session(e, rs.mod, rs.prep, rs.comp, env)
		if err == nil {
			err = ld.RunStaticInit()
		}
		if err != nil {
			return err
		}
		before := env.Steps
		id := l.tr.begin("interp.run_main."+e, l.op, true)
		err = ld.RunMain()
		s := l.tr.end(id)
		if err == nil {
			err = wantOutput(p, e+" run", out.String())
		}
		if err != nil {
			return err
		}
		l.add(s.Name, float64(s.dur()), float64(s.Mallocs))
		// Not a duration, but reduced over units and passes like one.
		l.add("steps_per_us."+e, float64(env.Steps-before)/(float64(s.dur())/1e3), 0)
		if l.pass == 0 && e == defaultEngine {
			m["opt.guest_steps.o2"] += float64(env.Steps)
		}
	}
	if l.pass > 0 {
		return nil
	}
	for tier, name := range []string{"o0", "o1"} {
		mod, err := buildAt(p.files, tier)
		if err != nil {
			return err
		}
		var out bytes.Buffer
		env := newEnv(&out)
		// Straight from the producer, not through the wire: step counts
		// are the same either way.
		ld, err := interp.LoadTrusted(mod, env)
		if err == nil {
			err = ld.RunMain()
		}
		if err == nil {
			err = wantOutput(p, name+" run", out.String())
		}
		if err != nil {
			return err
		}
		m["opt.guest_steps."+name] += float64(env.Steps)
	}
	return nil
}
