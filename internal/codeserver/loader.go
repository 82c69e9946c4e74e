package codeserver

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/obs"
	"safetsa/internal/wire"
)

// LoadedUnit is an admitted module held by the loader cache, together
// with its compiled form: the tables of the module, and a form whose
// bodies are either all present (a module a door handed over,
// interp.Lazy) or still behind a cursor over the unit's resident bytes
// (interp.PulledIn).
//
// Shared-module invariant (see interp.LoadTrusted): Mod and Comp are
// shared between every concurrent execution session of this unit and
// every clone of its warm snapshot. Each session builds its own class
// metadata, static storage, and heap from a fresh rt.Env; Mod's tables
// never change after load, and Comp changes only by a session publishing
// the body of a function it called first, which it pulls first under the
// form's lock when the form has a cursor. So a body is decoded and a
// function lowered once per distinct unit — by whichever session calls it
// first — no matter how many sessions run it, and a function no session
// calls is neither.
//
// A unit opened over resident bytes decodes its bodies into memory lent
// from a process-wide stock (unitArenas), and carves the code its sessions
// lower from the same item; it counts who holds it: the loader cache's
// entry and every session running on it, fresh or cloned. Each holder
// acquires the unit and lets go of it once; when the last one lets go the
// memory is given back to the stock, for the next unit's bodies and code
// (DESIGN.md §5, §11). A count that reached zero never revives: acquire on
// a dead unit fails, and its callers treat that as a miss. A module handed
// over whole counts its holders the same way, without lent memory: its
// form's code is its own.
//
// The unit's warm snapshot (DESIGN.md §9) lives in the unit: published at
// most once, by the first fresh session of it to finish static init
// (LoaderCache.offer), and dropped when the cache lets go of the unit
// (LoaderCache.drop). A clone is one of the unit's sessions, so it holds
// the unit as they do, and the cache bounds the units alive.
type LoadedUnit struct {
	Mod  *core.Module
	Comp *interp.Compiled

	refs  atomic.Int64
	arena *unitMem // the bodies' and the code's memory; nil for a module handed over whole
	// warm is nil until a snapshot is published, then that snapshot, and
	// dropped once the cache has let go of the unit.
	warm atomic.Pointer[interp.Snapshot]
}

// dropped is the warm slot of a unit the cache let go of: it holds no
// snapshot, and none can be published into it any more.
var dropped = new(interp.Snapshot)

// snapshot returns lu's warm snapshot, or nil when it has none.
func (lu *LoadedUnit) snapshot() *interp.Snapshot {
	if snap := lu.warm.Load(); snap != dropped {
		return snap
	}
	return nil
}

// acquire takes one more hold on lu for a new holder, and reports false
// when lu is dead: its last holder let go, and its memory may be another
// unit's by now.
func (lu *LoadedUnit) acquire() bool {
	for {
		n := lu.refs.Load()
		if n <= 0 {
			return false
		}
		if lu.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// letGo ends one holder's hold on lu. The last one gives its memory back
// to the stock: nothing can read its bodies, pull through its cursor or
// run its code any more, since every reader is a holder.
func (lu *LoadedUnit) letGo() {
	switch n := lu.refs.Add(-1); {
	case n < 0:
		panic("codeserver: a loaded unit was let go of more often than held")
	case n == 0 && lu.arena != nil:
		a := lu.arena
		lu.arena = nil
		unitArenas.Give(a)
	}
}

// unitMem is the memory one unit's run borrows: First is the arena its
// cursor decodes bodies into, Second the arena the code its sessions lower
// is carved from. The two travel together because they live exactly as
// long as each other — as long as anything may pull from the unit or run
// its code — so one Rewind takes both back under one cap.
type unitMem = core.Tandem[*wire.Arena, *interp.CodeArena]

func newUnitMem() *unitMem { return &unitMem{First: new(wire.Arena), Second: new(interp.CodeArena)} }

// unitArenas is the stock of unit memory, lent to two borrowers: a loaded
// unit's cursor over resident bytes and its compiled form, for as long as
// the unit lives, and a stream door's cursor and session, for the session
// (RunUnitStream). Give is the one way back.
var unitArenas = core.NewStock("codeserver.unit_arenas", core.MaxUnitArenaBytes, newUnitMem)

// LoaderCache is the consumer-side cache: it loads a unit exactly once
// (lru.fill's singleflight, like the store) and then hands it, with its
// shared compiled form and its warm snapshot, to any number of interpreter
// sessions.
type LoaderCache struct {
	m     *Metrics
	units lru[*LoadedUnit]
	// maxWarm bounds the units holding a warm snapshot at once; warm
	// counts them, and the snapshots being built for units holding none.
	maxWarm int64
	warm    atomic.Int64
}

// NewLoaderCache creates a cache holding at most maxModules loaded units
// (<=0 for a default of 256), of which at most maxWarm hold a warm
// snapshot at once (0 for a default of 256; negative for none).
func NewLoaderCache(maxModules, maxWarm int, m *Metrics) *LoaderCache {
	if maxModules <= 0 {
		maxModules = 256
	}
	if maxWarm == 0 {
		maxWarm = 256
	}
	c := &LoaderCache{m: m, units: newLRU[*LoadedUnit](maxModules, &m.n[mLoaderEvicted], nil), maxWarm: int64(maxWarm)}
	c.units.drop = c.drop
	return c
}

// Len reports the number of resident loaded units.
func (c *LoaderCache) Len() int { return c.units.len() }

// Warm reports the number of units holding a warm snapshot.
func (c *LoaderCache) Warm() int { return int(c.warm.Load()) }

// GetOrLoad returns the loaded unit for k, asking fetch (Server.lookup)
// for the unit only on a miss, and reports whether it was resident. A unit
// already resident is served without touching the store or the wire
// decoder again; only a caller that loads traces a load span. The caller
// holds the unit it is given, and lets go of it once it is done with it
// (letGo). A unit that died between the lookup and the caller's acquire
// was evicted and let go of by all its holders meanwhile; that is a miss,
// and the lookup starts over.
func (c *LoaderCache) GetOrLoad(ctx context.Context, k Key, fetch func(context.Context, Key) (*Unit, *core.Module, error)) (*LoadedUnit, bool, error) {
	for {
		lu, how, err := c.units.fill(ctx, k, func(ctx context.Context) (*LoadedUnit, error) {
			ctx, sp := obs.Start(ctx, "load")
			defer sp.End()
			return c.load(ctx, k, fetch)
		})
		switch {
		case err != nil:
			return nil, false, err
		case how == led: // load gave the leader its hold
			return lu, false, nil
		case lu.acquire():
			return lu, how == resident, nil
		}
	}
}

// offer snapshots l, a fresh session of lu, which the caller holds, that
// just finished static init, and publishes the snapshot as lu's when lu
// has none and fewer than maxWarm units hold one. initOut is the output
// the session printed during init. A snapshot is published only after
// Snapshot.Verify proves a probe clone reproduces the frozen heap
// checksum, init output and budget drain byte-exactly. Racing offers are
// benign: both build identical snapshots (the clone machinery is
// deterministic) and the first one published wins.
func (c *LoaderCache) offer(lu *LoadedUnit, l *interp.Loader, initOut []byte) {
	if lu.warm.Load() != nil || !c.reserve() {
		return // published or dropped already, or no place for one
	}
	snap, err := l.Snapshot(initOut)
	if err == nil {
		err = snap.Verify()
	}
	switch {
	case err != nil:
		// A snapshot that cannot reproduce itself must never serve
		// traffic; the counter is the alarm (this indicates a clone
		// machinery bug, not a property of the unit).
		c.m.n[mPoolVerifyFails].Add(1)
	case lu.warm.CompareAndSwap(nil, snap):
		c.m.n[mPoolBuilds].Add(1)
		return
	}
	c.warm.Add(-1)
}

// reserve counts one more unit holding a warm snapshot, unless maxWarm
// already do.
func (c *LoaderCache) reserve() bool {
	for {
		n := c.warm.Load()
		if n >= c.maxWarm {
			return false
		}
		if c.warm.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// drop is the cache's letting go of lu when it leaves, evicted or
// forgotten: lu's warm snapshot, if any, goes with it, and no later
// session of lu publishes one. Sessions that still hold lu run on; a
// clone needs the unit, not the snapshot it was cloned from.
func (c *LoaderCache) drop(lu *LoadedUnit) {
	if lu.warm.Swap(dropped) != nil {
		c.warm.Add(-1)
		c.m.n[mPoolEvictions].Add(1)
	}
	lu.letGo()
}

// load gives the fetched unit a compiled form with nothing lowered. When
// the fetch itself led the unit's admission (a peer fill, a disk
// re-admission) it hands the admitted module over, every body present.
// Otherwise the unit was resident as bytes, which the store admitted whole
// when they entered it; the loader opens a cursor over them that reads
// the tables and nothing more — the decode stage's one sample at load —
// and sessions pull the bodies they call (pull) into memory from the
// stock, and lower them into the same item. A refused open is one load
// error and a verify-kind rejection. Nothing is lowered here: sessions
// lower what they call, and account for it (session.finish). The unit is born with two holds:
// the cache entry fill makes of it, and the caller that led the load.
func (c *LoaderCache) load(ctx context.Context, k Key, fetch func(context.Context, Key) (*Unit, *core.Module, error)) (*LoadedUnit, error) {
	u, mod, err := fetch(ctx, k)
	if err != nil {
		c.m.n[mLoadErrors].Add(1)
		return nil, err
	}
	lu := &LoadedUnit{Mod: mod}
	lu.refs.Store(2)
	if mod != nil {
		lu.Comp = interp.Lazy(mod)
	} else if err = c.m.timed(ctx, stageDecode, func(context.Context) error {
		a := unitArenas.Take()
		su, err := wire.OpenVerified(u.Wire, a.First)
		if err != nil {
			unitArenas.Give(a)
			return err
		}
		lu.arena = a
		lu.Mod, lu.Comp = su.Mod, interp.PulledIn(su.Mod, su.NumFuncs(), c.pull(k, lu, su), a.Second)
		return nil
	}); err != nil {
		c.m.n[mLoadErrors].Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: unit %s: %s: %w", k, stageNames[stageDecode], err)}
	}
	c.m.n[mLoads].Add(1)
	return lu, nil
}

// pull is the cursor's side of a PulledIn form: it admits function fi of
// k's resident bytes on the first call any session or clone makes to
// it, decoding every body up to fi not decoded yet. The form serialises
// the calls. What a pull decodes is booked where it runs, inside some
// session's run: one decode sample and the bodies it admitted
// (pulled_functions). The bytes were admitted whole when they entered the
// store, so a pull that fails means they changed in memory or the host is
// broken: it is marked as a lowering refusal is (errors.ErrUnsupported),
// and verdict rejects the unit. Only a holder of lu pulls, so lu is alive;
// a pull on a dead unit would decode into another unit's memory, and ends
// the session instead — a fault of the host, not of the unit, which
// stands.
func (c *LoaderCache) pull(k Key, lu *LoadedUnit, su *wire.StreamingUnit) func(fi int) (*core.Func, error) {
	return func(fi int) (*core.Func, error) {
		if lu.refs.Load() <= 0 {
			return nil, fmt.Errorf("codeserver: unit %s: function %d pulled after the unit's last holder let go", k, fi)
		}
		ready, start := su.Ready(), time.Now()
		err := su.WaitFunc(fi)
		if fi >= ready {
			c.m.stages[stageDecode].Observe(time.Since(start))
			c.m.n[mPulledFunctions].Add(int64(su.Ready() - ready))
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
