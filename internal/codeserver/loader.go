package codeserver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/wire"
)

// LoadedUnit is an admitted module held by the loader cache, together
// with its closure-threaded compiled form: the tables of the module, and a
// form whose bodies are either all present (a module a door handed over,
// interp.Lazy) or still behind a cursor over the unit's resident bytes
// (interp.Pulled).
//
// Shared-module invariant (see interp.LoadTrusted): Mod and Comp are
// shared between every concurrent execution session of this unit and
// every clone of its pooled snapshot. Each session builds its own class
// metadata, static storage, and heap from a fresh rt.Env; Mod's tables
// never change after load, and Comp changes only by a session publishing
// the body of a function it called first, which it pulls first under the
// form's lock when the form has a cursor. So a body is decoded and a
// function lowered once per distinct unit — by whichever session calls it
// first — no matter how many sessions run it, and a function no session
// calls is neither.
type LoadedUnit struct {
	Mod  *core.Module
	Comp *interp.Compiled
}

// LoaderCache is the consumer-side cache: it loads a unit exactly once
// (lru.fill's singleflight, like the store) and then hands it, with its
// shared compiled form, to any number of interpreter sessions.
type LoaderCache struct {
	m     *Metrics
	units lru[*LoadedUnit]
}

// NewLoaderCache creates a cache holding at most maxModules loaded units
// (<=0 for a default of 256).
func NewLoaderCache(maxModules int, m *Metrics) *LoaderCache {
	if maxModules <= 0 {
		maxModules = 256
	}
	return &LoaderCache{m: m, units: newLRU[*LoadedUnit](maxModules, &m.loaderEvict, nil)}
}

// Len reports the number of resident loaded units.
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

// load gives the fetched unit a compiled form with nothing lowered. When
// the fetch itself led the unit's admission (a peer fill, a disk
// re-admission) it hands the admitted module over, every body present.
// Otherwise the unit was resident as bytes, which the store admitted whole
// when they entered it; the loader opens a cursor over them that reads
// the tables and nothing more — the decode stage's one sample at load —
// and sessions pull the bodies they call (pull). A refused open is one
// load error and a verify-kind rejection. Nothing is lowered here:
// sessions lower what they call (interp.Lazy), and account for it
// (session.finish).
func (c *LoaderCache) load(ctx context.Context, k Key, fetch func(context.Context, Key) (*Unit, *core.Module, error)) (*LoadedUnit, error) {
	u, mod, err := fetch(ctx, k)
	if err != nil {
		c.m.loadErrors.Add(1)
		return nil, err
	}
	lu := &LoadedUnit{Mod: mod}
	if mod != nil {
		lu.Comp = interp.Lazy(mod)
	} else if err = c.m.timed(ctx, stageDecode, func(context.Context) error {
		su, err := wire.OpenVerified(u.Wire)
		if err == nil {
			lu.Mod, lu.Comp = su.Mod, interp.Pulled(su.Mod, su.NumFuncs(), c.pull(k, su))
		}
		return err
	}); err != nil {
		c.m.loadErrors.Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s: %s: %w", k, stageNames[stageDecode], err)}
	}
	c.m.loads.Add(1)
	return lu, nil
}

// pull is the cursor's side of a Pulled form: it admits function fi of
// k's resident bytes on the first call any session or pool clone makes to
// it, decoding every body up to fi not decoded yet. The form serialises
// the calls. What a pull decodes is booked where it runs, inside some
// session's run: one decode sample and the bodies it admitted
// (pulled_functions). The bytes were admitted whole when they entered the
// store, so a pull that fails means they changed in memory or the host is
// broken: it is marked as a lowering refusal is (errors.ErrUnsupported),
// and verdict rejects the unit.
func (c *LoaderCache) pull(k Key, su *wire.StreamingUnit) func(fi int) (*core.Func, error) {
	return func(fi int) (*core.Func, error) {
		ready, start := su.Ready(), time.Now()
		err := su.WaitFunc(fi)
		if fi >= ready {
			c.m.stages[stageDecode].Observe(time.Since(start))
			c.m.pulledFuncs.Add(uint64(su.Ready() - ready))
		}
		if err != nil {
			return nil, fmt.Errorf("%w: codeserver: unit %s: admitted whole, function %d no longer decodes: %w",
				errors.ErrUnsupported, k, fi, err)
		}
		return su.Mod.Funcs[fi], nil
	}
}

// forget drops k's loaded unit, if resident.
func (c *LoaderCache) forget(k Key) { c.units.remove(k) }
