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
// shared between every concurrent execution session of this unit. Each
// session builds its own class metadata, static storage, and heap from a
// fresh rt.Env; Mod is never mutated after load, and Comp changes only by
// a session publishing the body of a function it called first
// (interp.Lazy). So a function is lowered once per distinct unit — by
// whichever session calls it first — no matter how many sessions run it,
// and a function no session calls is never lowered.
type LoadedUnit struct {
	Mod  *core.Module
	Comp *interp.Compiled
}

// LoaderCache is the consumer-side cache: it admits a unit's module
// exactly once (lru.fill's singleflight, like the store) and then hands
// it, with its shared compiled form, to any number of interpreter
// sessions.
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

// load admits the fetched unit and gives it an empty compiled form. When
// the fetch itself led the unit's admission (a peer fill, a disk
// re-admission) it hands the admitted module over; otherwise the unit was
// resident as bytes and the loader admits them itself, which is what the
// decode stage times. A refused admission is one load error and a
// verify-kind rejection. Nothing is lowered here: sessions lower what they
// call (interp.Lazy), and account for it (session.finish).
func (c *LoaderCache) load(ctx context.Context, k Key, fetch func(context.Context, Key) (*Unit, *core.Module, error)) (*LoadedUnit, error) {
	u, mod, err := fetch(ctx, k)
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, err
	}
	if mod == nil {
		err = c.m.timed(ctx, stageDecode, func(context.Context) error {
			a, err := admit(u.Wire)
			mod = a.mod
			return err
		})
		if err != nil {
			c.m.loadErrors.Add(1)
			return nil, &driver.Error{Kind: driver.KindVerify,
				Err: fmt.Errorf("codeserver: unit %s: %s: %w", k, stageNames[stageDecode], err)}
		}
	}
	c.m.loads.Add(1)
	return &LoadedUnit{Mod: mod, Comp: interp.Lazy(mod)}, nil
}

// forget drops k's loaded unit, if resident.
func (c *LoaderCache) forget(k Key) { c.units.remove(k) }
