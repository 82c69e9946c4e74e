package codeserver

import (
	"context"
	"fmt"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/obs"
	"safetsa/internal/wire"
)

// LoadedUnit is a decoded and verified module held by the loader cache,
// together with its closure-threaded compiled form.
//
// Shared-module invariant (see interp.LoadTrusted): Mod and Comp are
// shared read-only between every concurrent execution session of this
// unit. Each session builds its own class metadata, static storage, and
// heap from a fresh rt.Env, so nothing here is ever mutated after load.
// Lowering (interp.Prepare, whose output only interp.Compile consumes)
// and backend compilation happen once per distinct unit, under the same
// singleflight as decode+verify, no matter how many sessions run it.
type LoadedUnit struct {
	Key    Key
	Mod    *core.Module
	Comp   *interp.Compiled
	Instrs int
}

// LoaderCache is the consumer-side cache: it decodes and verifies a wire
// image exactly once (lru.fill's singleflight, like the store) and then
// hands the immutable module to any number of interpreter sessions.
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

// GetOrLoad returns the loaded unit for k, fetching the wire bytes and
// running decode+verify only on a miss. The decode and verify latencies
// feed the metrics; a unit already resident is served without touching
// the wire decoder again.
func (c *LoaderCache) GetOrLoad(ctx context.Context, k Key, fetch func() ([]byte, error)) (*LoadedUnit, error) {
	u, how, err := c.units.fill(ctx, k, func(ctx context.Context) (*LoadedUnit, error) {
		return c.load(ctx, k, fetch)
	})
	if how == resident {
		c.m.loaderHits.Add(1)
	}
	return u, err
}

func (c *LoaderCache) load(ctx context.Context, k Key, fetch func() ([]byte, error)) (*LoadedUnit, error) {
	data, err := fetch()
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, err
	}
	_, dsp := obs.Start(ctx, "decode")
	start := time.Now()
	mod, err := wire.DecodeModule(data)
	c.m.decodeHist.Observe(time.Since(start))
	dsp.End()
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s: %w", k, err)}
	}
	_, vsp := obs.Start(ctx, "verify")
	start = time.Now()
	err = mod.Verify(core.VerifyOptions{})
	c.m.verifyHist.Observe(time.Since(start))
	vsp.End()
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s rejected by verifier: %w", k, err)}
	}
	_, psp := obs.Start(ctx, "prepare")
	start = time.Now()
	prep, err := interp.Prepare(mod)
	c.m.prepareHist.Observe(time.Since(start))
	psp.End()
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s failed to prepare: %w", k, err)}
	}
	_, csp := obs.Start(ctx, "compile_backend")
	start = time.Now()
	comp, err := interp.Compile(mod, prep)
	c.m.compileBackendHist.Observe(time.Since(start))
	csp.End()
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s failed to compile: %w", k, err)}
	}
	c.m.loads.Add(1)
	return &LoadedUnit{Key: k, Mod: mod, Comp: comp, Instrs: mod.NumInstrs()}, nil
}
