package oracle

import (
	"bytes"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// PooledDifferential is the warm-session-pool soundness oracle: for any
// byte string that passes wire admission, a session cloned from a
// post-static-init snapshot must be observationally identical — printed
// output, error text, kill reason, cumulative step/alloc budget drain,
// and final reachable-heap checksum — to a fresh session that ran the
// initializers itself, on every execution engine. It also holds the
// snapshot's publish-time self-verification (Verify) to its contract: a
// snapshot taken from a successful init must always verify.
//
// Modules whose static init fails under the budgets never produce a
// snapshot (mirroring the server, which only pools after a successful
// RunStaticInit), so for them the oracle just checks that the split
// LoadTrustedDeferred+RunStaticInit path agrees with the fused loader.
//
// The compiled engine runs twice, over an eagerly compiled form and over
// one filled on first call (interp.Lazy), which its fresh, pooled and
// reference sessions share as the server's do; every engine's reference
// session is held to the reference walker's.
func PooledDifferential(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection, same contract as CheckWire
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		return fmt.Errorf("oracle: verified module fails to prepare: %w", err)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		return fmt.Errorf("oracle: prepared module fails to compile: %w", err)
	}
	b = orDefaults(b)

	engines := []struct {
		name string
		prep *interp.Prepared
		comp *interp.Compiled
	}{
		{driver.EngineReference, nil, nil},
		{driver.EnginePrepared, prep, nil},
		{driver.EngineCompiled, nil, comp},
		{engineLazy, nil, interp.Lazy(mod)},
	}
	var walker *engineRun
	for _, e := range engines {
		ref, err := pooledEngineCheck(mod, e.name, e.prep, e.comp, b)
		if err != nil {
			return err
		}
		if walker == nil {
			walker = ref
		} else if err := compareEngineRuns(e.name, walker, ref); err != nil {
			return err
		}
	}
	return nil
}

// pooledEngineCheck runs the fresh/build/clone trio on one engine,
// compares every observable, and returns the engine's reference session.
// The clone runs main before the session that built its snapshot does, so
// over a lazily filled form it is the first to call what main calls.
func pooledEngineCheck(mod *core.Module, engine string, prep *interp.Prepared, comp *interp.Compiled, b Budgets) (*engineRun, error) {
	// Fresh baseline: the fused load-and-init path every earlier PR
	// shipped (init + main in one session).
	fresh := &engineRun{}
	fresh.env = rt.NewEnv(&fresh.out, b, nil)
	fresh.l, fresh.err = interp.LoadTrustedDeferred(mod, prep, comp, fresh.env)
	if fresh.err == nil {
		fresh.err = fresh.l.RunStaticInit()
	}
	initFailed := fresh.err != nil
	var snap *interp.Snapshot
	clone := &engineRun{}
	if !initFailed {
		// Init succeeded: this is the session the server would Offer to
		// the pool. Freeze it before main mutates anything.
		var err error
		snap, err = fresh.l.Snapshot(fresh.out.Bytes())
		if err != nil {
			return nil, fmt.Errorf("oracle: %s snapshot after successful init failed: %w", engine, err)
		}
		if err := snap.Verify(); err != nil {
			return nil, fmt.Errorf("oracle: %s snapshot self-verification failed: %w", engine, err)
		}
		if !snap.Admits(b) {
			return nil, fmt.Errorf("oracle: %s snapshot does not admit the budgets that built it (init %d steps/%d allocs under %d/%d)",
				engine, snap.InitSteps(), snap.InitAllocs(), b.MaxSteps, b.MaxAlloc)
		}
		clone.env = rt.NewEnv(&clone.out, b, nil)
		clone.l, clone.err = snap.NewSession(clone.env)
		if clone.err != nil {
			return nil, fmt.Errorf("oracle: %s clone session failed: %w", engine, clone.err)
		}
		if mod.Entry >= 0 {
			clone.err = clone.l.RunMain()
			fresh.err = fresh.l.RunMain()
		}
	}

	// Reference observable: a second fresh session end-to-end (the first
	// one was consumed as the snapshot builder).
	ref := &engineRun{}
	ref.env = rt.NewEnv(&ref.out, b, nil)
	ref.l, ref.err = interp.LoadTrustedDeferred(mod, prep, comp, ref.env)
	if ref.err == nil {
		ref.err = ref.l.RunStaticInit()
		if ref.err == nil && mod.Entry >= 0 {
			ref.err = ref.l.RunMain()
		}
	}

	if initFailed {
		// No snapshot forms; the builder session itself must match the
		// reference (both died mid-init the same way).
		err := compareEngineRuns(engine+" (init-failed build)", ref, fresh)
		fresh.release()
		return ref, err
	}
	err := compareEngineRuns(engine+" (build session)", ref, fresh)
	if err == nil {
		err = compareEngineRuns(engine+" (pooled clone)", ref, clone)
	}
	// Released, as the server releases them: the builder and the first
	// clone may share nothing with the snapshot, so the second clone below
	// sees the frozen state whatever became of their memory.
	fresh.release()
	clone.release()
	if err != nil {
		return nil, err
	}
	// Clone independence: a second clone from the same snapshot must see
	// the frozen state, not the first clone's main-mutated heap.
	var out2 bytes.Buffer
	env2 := rt.NewEnv(&out2, b, nil)
	l2, err := snap.NewSession(env2)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s second clone failed: %w", engine, err)
	}
	defer l2.Release()
	if got := l2.HeapChecksum(); got != snap.Checksum() {
		return nil, fmt.Errorf("oracle: %s second clone heap %#x != frozen %#x (clones are not isolated)",
			engine, got, snap.Checksum())
	}
	return ref, nil
}
