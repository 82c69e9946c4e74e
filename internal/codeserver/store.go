package codeserver

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"safetsa/internal/core"
	"safetsa/internal/obs"
	"safetsa/internal/wire"
)

// Unit is one compiled distribution unit: the producer pipeline's output
// for a content key. Units are immutable once published.
type Unit struct {
	Key    Key
	Wire   []byte
	Size   int
	Instrs int
}

// admitted is what a door hands the store: the bytes of a unit admission
// accepted, their instruction count and — when the admission kept one —
// the verified module they encode. It is minted in three places and
// nowhere else — admit (the decoder admitted mod from wire), Pool.Compile
// (the producer's driver verified mod and then encoded it) and a stream
// whose Wait returned nil (every function was admitted as wire arrived,
// and consumed: a stream's has no module) — so holding one is the proof
// that wire may be served and, when there is one, mod may be lowered and
// run.
type admitted struct {
	mod    *core.Module
	wire   []byte
	instrs int
}

// admittedModule is the admitted pair of a door that kept the module.
func admittedModule(mod *core.Module, wire []byte) admitted {
	return admitted{mod: mod, wire: wire, instrs: mod.NumInstrs()}
}

// newUnit is the only way a Unit comes to exist outside tests. Size and
// instruction count come from the admitted value and from nowhere else;
// the store stamps the key the unit was filled under. The unit keeps the
// bytes only: the module goes to whoever led the admission (see
// Store.fill).
func newUnit(a admitted) *Unit {
	return &Unit{Wire: a.wire, Size: len(a.wire), Instrs: a.instrs}
}

// admit is the consumer's admission, the package's only spelling of it:
// bytes this process did not just produce (a peer's answer, a file in the
// cache directory) pass wire.DecodeVerified or nothing is admitted. Bytes
// it admitted are decoded again only body by body, as guests call them,
// by the same rule (LoaderCache.load).
func admit(data []byte) (admitted, error) {
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		return admitted{}, err
	}
	return admittedModule(mod, data), nil
}

// Store is the content-addressed unit store: an in-memory LRU in front of
// an optional on-disk store, one file per unit. It has one way in, fill,
// under the LRU's singleflight (see lru.fill): an entry exists because a
// caller on this node asked for its key, and concurrent requests for one
// key probe the disk and run the producer pipeline or the peer fetch once.
type Store struct {
	dir   string // "" disables the disk tier
	m     *Metrics
	units lru[*Unit]
	// widest is the length of the longest unit fill has made: no unit in
	// the memory tier is longer.
	widest atomic.Int64
}

// NewStore creates a store holding at most maxUnits encoded units in
// memory. dir, when non-empty, enables the on-disk tier; it is created if
// absent.
func NewStore(dir string, maxUnits int, m *Metrics) (*Store, error) {
	if maxUnits <= 0 {
		maxUnits = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("codeserver: cache dir: %w", err)
		}
	}
	return &Store{dir: dir, m: m, units: newLRU[*Unit](maxUnits, &m.n[mEvictions], &m.n[mCoalesced])}, nil
}

// Len reports the number of units resident in memory.
func (s *Store) Len() int { return s.units.len() }

// fill returns the unit for k from memory, else — one caller at a time per
// key — from the disk tier, else from miss; a nil miss is a lookup with
// nowhere further to ask. Whatever miss admits is published under k in
// memory and then, being the value that won the memory tier, on disk.
// The module result is the admission's other half, handed to the one
// caller that led it (from disk or from miss) so that caller need not
// decode the unit again; a resident hit and a joined waiter get nil.
// Fill errors are not cached; lru.fill says which of them a coalesced
// caller adopts and after which it starts over. Error accounting is the
// miss callback's job: the store serves every fill flavor.
func (s *Store) fill(ctx context.Context, k Key, miss func(context.Context) (admitted, error)) (*Unit, *core.Module, fillHow, error) {
	var a admitted
	fromDisk := false
	u, how, err := s.units.fill(ctx, k, func(ctx context.Context) (_ *Unit, err error) {
		_, dsp := obs.Start(ctx, "disk")
		a, fromDisk = s.loadDisk(k)
		dsp.End()
		if !fromDisk {
			if miss == nil {
				return nil, ErrUnitNotFound
			}
			fctx, fsp := obs.Start(ctx, "fill")
			a, err = miss(fctx)
			fsp.End()
			if err != nil {
				return nil, err
			}
		}
		u := newUnit(a)
		u.Key = k
		for w := s.widest.Load(); int64(u.Size) > w; w = s.widest.Load() {
			if s.widest.CompareAndSwap(w, int64(u.Size)) {
				break
			}
		}
		return u, nil
	})
	if err != nil {
		return nil, nil, how, err
	}
	if how == led && !fromDisk {
		s.writeDisk(u) // after the memory tier, so a lookup never sees the disk copy first
	}
	return u, a.mod, how, nil
}

// Get returns a unit from the memory or disk tier without compiling.
// Lookups on this path (unit downloads, loader-cache fills) are not
// counted as compile-path cache hits.
func (s *Store) Get(ctx context.Context, k Key) (*Unit, bool) {
	u, _, _, err := s.fill(ctx, k, nil)
	return u, err == nil
}

// resident returns the unit the memory tier holds under k, without asking
// the disk tier or a miss. Every unit there entered through fill; one
// under a wire key had its bytes admitted whole by the decoder (a stream's
// Wait, or admit) — though not necessarily the bytes k names: a peer fill
// stores the owner's answer under the key it asked for.
func (s *Store) resident(k Key) (*Unit, bool) { return s.units.get(k) }

// GetOrFill is fill with the compile path's accounting. The second result
// reports whether the unit was served without running fill in this call
// (memory/disk hit); callers that coalesced onto another caller's
// in-flight fill see cached=false.
func (s *Store) GetOrFill(ctx context.Context, k Key, fill func(context.Context) (admitted, error)) (u *Unit, cached bool, err error) {
	ran := false
	u, _, how, err := s.fill(ctx, k, func(ctx context.Context) (admitted, error) {
		ran = true
		return fill(ctx)
	})
	switch {
	case err != nil:
		return nil, false, err
	case how == resident:
		s.m.n[mCacheHits].Add(1)
	case how == led && !ran:
		s.m.n[mDiskHits].Add(1)
	default: // this call, or the flight it joined, ran fill
		return u, false, nil
	}
	return u, true, nil
}

// forget drops k from both tiers: a unit /run rejected after admission
// (see verdict) must not be served again from memory or re-admitted from
// disk.
func (s *Store) forget(k Key) {
	s.units.remove(k)
	if s.dir != "" {
		_ = os.Remove(s.wirePath(k)) // best effort, like the rest of the disk tier
	}
}

func (s *Store) wirePath(k Key) string { return filepath.Join(s.dir, k.String()+".tsa") }

// loadDisk re-admits a unit from the disk tier. The directory is one more
// untrusted source — writeDisk does not fsync, so a crash can leave a torn
// .tsa — and gets the same rule as a peer fill: the bytes pass admit or
// they are a miss. A rejected file is removed so the key recompiles
// instead of failing every run.
func (s *Store) loadDisk(k Key) (admitted, bool) {
	if s.dir == "" {
		return admitted{}, false
	}
	data, err := os.ReadFile(s.wirePath(k))
	if err != nil {
		return admitted{}, false
	}
	a, err := admit(data)
	if err != nil {
		_ = os.Remove(s.wirePath(k))
		return admitted{}, false
	}
	return a, true
}

// writeDisk persists u, best effort: the disk tier is an optimization, so
// I/O errors degrade to recompilation rather than failing the request.
// There is deliberately no fsync: the cache is regenerable from source, so
// a crash costs at most a recompile — loadDisk re-admits every unit it
// reads and treats a rejected one as a miss.
func (s *Store) writeDisk(u *Unit) {
	if s.dir != "" {
		atomicWrite(s.wirePath(u.Key), u.Wire)
	}
}

// atomicWrite publishes data at path via a unique temp file and rename,
// so readers observe either the previous complete file or the new
// complete file, never a prefix. The temp name is unique because a fixed
// ".tmp" let concurrent writers for one key truncate each other's
// half-written file and rename the torn result into place. Errors are
// swallowed (best-effort tier); the temp file is removed on any failure
// so the cache dir stays clean.
func atomicWrite(path string, data []byte) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return
	}
	_, werr := f.Write(data)
	cerr := f.Chmod(0o644)
	if err := f.Close(); werr != nil || cerr != nil || err != nil {
		_ = os.Remove(f.Name())
		return
	}
	if err := os.Rename(f.Name(), path); err != nil {
		_ = os.Remove(f.Name())
	}
}
