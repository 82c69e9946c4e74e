package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/ssabuild"
	"safetsa/internal/wire"
)

// replayState is what the library replay of a resident unit starts
// from: the decoded module, its prepared and compiled forms and a
// post-static-init snapshot — the state the server holds for a unit
// that is in its loader cache and session pool.
type replayState struct {
	mod  *core.Module
	prep *interp.Prepared
	comp *interp.Compiled
	snap *interp.Snapshot
}

// resident builds (once, outside any span) the replay state of p.
func resident(p *program) (*replayState, error) {
	if p.replay != nil && p.replay.snap != nil {
		return p.replay, nil
	}
	mod, err := wire.DecodeVerified(p.wire)
	if err != nil {
		return nil, err
	}
	rs := &replayState{mod: mod}
	if rs.prep, err = interp.Prepare(mod); err != nil {
		return nil, err
	}
	if rs.comp, err = interp.Compile(mod, rs.prep); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	ld, err := session(defaultEngine, mod, rs.prep, rs.comp, newEnv(&out))
	if err == nil {
		err = ld.RunStaticInit()
	}
	if err != nil {
		return nil, err
	}
	if rs.snap, err = ld.Snapshot(out.Bytes()); err != nil {
		return nil, err
	}
	p.replay = rs
	return rs, nil
}

var producerOptions = codeserver.Options{Optimize: true, ModuleOpt: true, WireV2: true}

// replay performs one operation as the bare sequence of library calls
// the server makes for it, each in its own span under l.op, and returns
// what the guest printed. What the server adds on top — routing, JSON,
// caches, admission, accounting — is the difference between this and
// the direct call.
func (l *layerRun) replay(o op, cold bool) (string, error) {
	p := o.prog
	var out bytes.Buffer
	switch o.kind {
	case kindCompileCached:
		_, err := stage(l, "replay.keyfor", func() (codeserver.Key, error) {
			return codeserver.KeyFor(p.files, producerOptions), nil
		})
		return "", err

	case kindCompile:
		ctx := context.Background()
		files := p.salted(o.salt)
		_, _ = stage(l, "replay.keyfor", func() (codeserver.Key, error) {
			return codeserver.KeyFor(files, producerOptions), nil
		})
		prog, err := stage(l, "replay.frontend", call2(driver.FrontendContext, ctx, files))
		if err != nil {
			return "", err
		}
		mod, err := stage(l, "replay.ssabuild", call1(ssabuild.Build, prog))
		if err != nil {
			return "", err
		}
		verify := func() error { return mod.Verify(core.VerifyOptions{}) }
		if err := step(l, "replay.verify", verify); err != nil {
			return "", err
		}
		o2 := opt.Options{ModuleLevel: true}
		if _, err := stage(l, "replay.optimize", func() (opt.Stats, error) {
			return opt.RunPasses(mod, o2, opt.PipelineFor(o2), nil)
		}); err != nil {
			return "", err
		}
		if err := step(l, "replay.verify", verify); err != nil {
			return "", err
		}
		_, err = stage(l, "replay.encode", func() ([]byte, error) { return wire.EncodeModuleV2(mod, nil), nil })
		return "", err

	case kindStream:
		su, err := stage(l, "replay.stream_open", func() (*wire.StreamingUnit, error) {
			return wire.DecodeVerifiedStream(bytes.NewReader(p.wire), wire.DecodeOptions{})
		})
		if err != nil {
			return "", err
		}
		if err := step(l, "replay.stream_run", func() error {
			ld, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, newEnv(&out))
			if err != nil {
				return err
			}
			return ld.RunMain()
		}); err != nil {
			return "", err
		}
		err = step(l, "replay.stream_wait", su.Wait)
		return out.String(), err
	}

	// kindRun
	if !cold {
		rs, err := resident(p)
		if err != nil {
			return "", err
		}
		ld, err := stage(l, "replay.snapshot_clone", call1(rs.snap.NewSession, newEnv(&out)))
		if err != nil {
			return "", err
		}
		err = step(l, "replay.run_main", ld.RunMain)
		return out.String(), err
	}
	mod, err := stage(l, "replay.decode", call1(wire.DecodeModule, p.wire))
	if err != nil {
		return "", err
	}
	if err := step(l, "replay.verify", func() error { return mod.Verify(core.VerifyOptions{}) }); err != nil {
		return "", err
	}
	prep, err := stage(l, "replay.prepare", call1(interp.Prepare, mod))
	if err != nil {
		return "", err
	}
	comp, err := stage(l, "replay.compile_backend", call2(interp.Compile, mod, prep))
	if err != nil {
		return "", err
	}
	ld, err := stage(l, "replay.load", func() (*interp.Loader, error) {
		return session(defaultEngine, mod, prep, comp, newEnv(&out))
	})
	if err != nil {
		return "", err
	}
	if err := step(l, "replay.static_init", ld.RunStaticInit); err != nil {
		return "", err
	}
	if err := step(l, "replay.snapshot_build", func() error {
		snap, err := ld.Snapshot(out.Bytes())
		if err != nil {
			return err
		}
		return snap.Verify()
	}); err != nil {
		return "", err
	}
	err = step(l, "replay.run_main", ld.RunMain)
	return out.String(), err
}

// direct performs one operation by calling codeserver.Server without
// HTTP in between.
func (h *harness) direct(o op) outcome {
	ctx := context.Background()
	ro := codeserver.RunOptions{MaxSteps: guestMaxSteps, MaxAllocs: guestMaxAllocs, Tenant: tenantName(o.tenant)}
	switch o.kind {
	case kindCompile, kindCompileCached:
		files := o.prog.files
		if o.kind == kindCompile {
			files = o.prog.salted(o.salt)
		}
		u, cached, err := h.srv.CompileUnit(ctx, files, codeserver.Options{ModuleOpt: true})
		if err != nil {
			return outcome{err: err}
		}
		return outcome{hash: u.Key.String(), cached: cached}
	case kindStream:
		res, err := h.srv.RunUnitStream(ctx, bytes.NewReader(o.prog.wire), ro)
		return runOutcome(res.RunResult, err)
	}
	res, err := h.srv.RunUnitOpts(ctx, o.prog.key, ro)
	return runOutcome(res, err)
}

func runOutcome(res codeserver.RunResult, err error) outcome {
	if err == nil && !res.OK {
		err = fmt.Errorf("guest failed: %s", res.Error)
	}
	return outcome{err: err, output: res.Output, steps: res.Steps}
}

// tracedPass issues every operation of a pass over the workload's
// universe under one op id, first plainly over HTTP with no span around
// it and then three ways inside spans: over HTTP, directly into
// codeserver.Server, and as the bare library calls. One client; each
// way completes its pass before the next begins, so a workload whose
// point is a cache too small for its universe stays in that regime.
func tracedPass(tr *tracer, h *harness, w *workload, in *inputs, passes int, rec *recorder, m map[string]float64) error {
	primary := w.kinds[0]
	l := newLayerRun(tr)
	var plain, viaHTTP, viaDirect, viaReplay []float64
	for pass := 0; pass < passes; pass++ {
		opID := func(i int) int { return pass*len(w.universe(in))*len(w.kinds) + i }

		// Plain and traced take turns at going first.
		for _, traced := range []bool{pass%2 == 1, pass%2 == 0} {
			for i, o := range w.passOps(in, fmt.Sprintf("http-%v-%d", traced, pass)) {
				rq, err := h.request(o)
				if err != nil {
					return err
				}
				var lat time.Duration
				var oc outcome
				if traced {
					id := tr.begin("http."+kindNames[o.kind], opID(i), false)
					oc, _ = h.overHTTP(o, rq)
					lat = tr.end(id).dur()
				} else {
					oc, lat = h.overHTTP(o, rq)
				}
				if !rec.check("single-client http", o, oc) || o.kind != primary {
					continue
				}
				if traced {
					viaHTTP = append(viaHTTP, float64(lat))
				} else {
					plain = append(plain, float64(lat))
				}
			}
		}

		for i, o := range w.passOps(in, fmt.Sprintf("direct-%d", pass)) {
			id := tr.begin("codeserver."+kindNames[o.kind], opID(i), false)
			oc := h.direct(o)
			s := tr.end(id)
			if rec.check("direct", o, oc) && o.kind == primary {
				viaDirect = append(viaDirect, float64(s.dur()))
			}
		}

		for i, o := range w.passOps(in, fmt.Sprintf("replay-%d", pass)) {
			l.op, l.leafNs = opID(i), 0
			id := tr.begin("replay."+kindNames[o.kind], l.op, false)
			output, err := l.replay(o, w.cold)
			tr.end(id)
			if err == nil && o.kind >= kindRun {
				err = wantOutput(o.prog, "replay", output)
			}
			if err != nil {
				return err
			}
			if o.kind == primary {
				viaReplay = append(viaReplay, l.leafNs)
			}
		}
	}
	m["codeserver.direct_us"] = median(viaDirect) / 1e3
	m["codeserver.http_overhead_us"] = (median(viaHTTP) - median(viaDirect)) / 1e3
	m["codeserver.self_us"] = (median(viaDirect) - median(viaReplay)) / 1e3
	m["trace.overhead_share"] = median(viaHTTP)/median(plain) - 1
	return nil
}
