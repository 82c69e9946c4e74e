package codeserver

import (
	"context"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
)

// LoadedUnit is an admitted module held by the loader cache, together
// with its closure-threaded compiled form.
//
// Shared-module invariant (see interp.LoadTrusted): Mod and Comp are
// shared read-only between every concurrent execution session of this
// unit. Each session builds its own class metadata, static storage, and
// heap from a fresh rt.Env, so nothing here is ever mutated after load.
// Lowering (interp.Prepare, whose output only interp.Compile consumes)
// and backend compilation happen once per distinct unit, under the same
// singleflight as the admission, no matter how many sessions run it.
type LoadedUnit struct {
	Mod  *core.Module
	Comp *interp.Compiled
}

// LoaderCache is the consumer-side cache: it lowers an admitted module
// exactly once (lru.fill's singleflight, like the store) and then hands
// the immutable result to any number of interpreter sessions.
type LoaderCache struct {
	m     *Metrics
	units lru[*LoadedUnit]
}

// NewLoaderCache creates a cache holding at most maxModules decoded
// modules (<=0 for a default of 256).
func NewLoaderCache(maxModules int, m *Metrics) *LoaderCache {
	if maxModules <= 0 {
		maxModules = 256
	}
	return &LoaderCache{m: m, units: newLRU[*LoadedUnit](maxModules, &m.loaderEvict, nil)}
}

// Len reports the number of resident decoded modules.
func (c *LoaderCache) Len() int { return c.units.len() }

// GetOrLoad returns the loaded unit for k, asking fetch (Server.lookup)
// for the unit only on a miss. A unit already resident is served without
// touching the store or the wire decoder again.
func (c *LoaderCache) GetOrLoad(ctx context.Context, k Key, fetch func(context.Context, Key) (*Unit, *core.Module, error)) (*LoadedUnit, error) {
	u, how, err := c.units.fill(ctx, k, func(ctx context.Context) (*LoadedUnit, error) {
		return c.load(ctx, k, fetch)
	})
	if how == resident {
		c.m.loaderHits.Add(1)
	}
	return u, err
}

// load runs the consumer pipeline on the fetched unit, each stage under
// one clock (Metrics.timed). When the fetch itself led the unit's admission
// (a peer fill, a disk re-admission) it hands the admitted module over and
// lowering starts from it; otherwise the unit was resident as bytes and
// the loader admits them itself, which is what the decode stage times. A
// failure at any stage is one load error and a verify-kind rejection
// naming the stage.
func (c *LoaderCache) load(ctx context.Context, k Key, fetch func(context.Context, Key) (*Unit, *core.Module, error)) (*LoadedUnit, error) {
	u, mod, err := fetch(ctx, k)
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, err
	}
	var (
		prep *interp.Prepared
		comp *interp.Compiled
	)
	stages := []struct {
		stage stage
		run   func(context.Context) error
	}{
		{stageDecode, func(context.Context) error {
			a, err := admit(u.Wire)
			mod = a.mod
			return err
		}},
		{stagePrepare, func(context.Context) (err error) { prep, err = interp.Prepare(mod); return }},
		{stageCompileBackend, func(context.Context) (err error) { comp, err = interp.Compile(mod, prep); return }},
	}
	if mod != nil {
		stages = stages[1:] // a door handed the admitted module over
	}
	for _, st := range stages {
		if err := c.m.timed(ctx, st.stage, st.run); err != nil {
			c.m.loadErrors.Add(1)
			return nil, &driver.Error{Kind: driver.KindVerify,
				Err: fmt.Errorf("codeserver: unit %s: %s: %w", k, stageNames[st.stage], err)}
		}
	}
	c.m.loads.Add(1)
	return &LoadedUnit{Mod: mod, Comp: comp}, nil
}
