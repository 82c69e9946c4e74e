package codeserver

import (
	"container/list"
	"context"
	"fmt"
	"sync"
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
// image exactly once (singleflight, like the store) and then hands the
// immutable module to any number of interpreter sessions.
type LoaderCache struct {
	max int
	m   *Metrics

	mu       sync.Mutex
	entries  map[Key]*list.Element
	order    *list.List
	inflight map[Key]*loadCall
}

type loadCall struct {
	done chan struct{}
	unit *LoadedUnit
	err  error
}

// NewLoaderCache creates a cache holding at most maxModules decoded
// modules (<=0 for a default of 256).
func NewLoaderCache(maxModules int, m *Metrics) *LoaderCache {
	if maxModules <= 0 {
		maxModules = 256
	}
	return &LoaderCache{
		max:      maxModules,
		m:        m,
		entries:  make(map[Key]*list.Element),
		order:    list.New(),
		inflight: make(map[Key]*loadCall),
	}
}

// Len reports the number of resident decoded modules.
func (c *LoaderCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetOrLoad returns the loaded unit for k, fetching the wire bytes and
// running decode+verify only on a miss. The decode and verify latencies
// feed the metrics; a unit already resident is served without touching
// the wire decoder again.
func (c *LoaderCache) GetOrLoad(ctx context.Context, k Key, fetch func() ([]byte, error)) (*LoadedUnit, error) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		c.m.loaderHits.Add(1)
		return el.Value.(*LoadedUnit), nil
	}
	if fl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.unit, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &loadCall{done: make(chan struct{})}
	c.inflight[k] = fl
	c.mu.Unlock()

	u, err := c.load(ctx, k, fetch)
	fl.unit, fl.err = u, err
	c.mu.Lock()
	delete(c.inflight, k)
	if err == nil {
		c.entries[k] = c.order.PushFront(u)
		for c.order.Len() > c.max {
			back := c.order.Back()
			old := back.Value.(*LoadedUnit)
			c.order.Remove(back)
			delete(c.entries, old.Key)
			c.m.loaderEvict.Add(1)
		}
	}
	c.mu.Unlock()
	close(fl.done)
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
