package codeserver

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"safetsa/internal/core"
	"safetsa/internal/obs"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// Unit is one compiled distribution unit: the producer pipeline's output
// for a content key. Units are immutable once published.
type Unit struct {
	Key    Key    `json:"-"`
	Wire   []byte `json:"-"`
	Size   int    `json:"size"`
	Instrs int    `json:"instructions"`
	unitMeta
}

// unitMeta is what a /compile answer carries that the unit itself does
// not encode: producer-side facts, kept in the disk tier's sidecar and
// sent beside the bytes by a peer. They are bookkeeping, never safety.
type unitMeta struct {
	Optimized bool      `json:"optimized"`
	OptStats  opt.Stats `json:"opt_stats"`
}

// newUnit is the only way a Unit comes to exist outside tests. Its
// evidence is mod, the verified module that data encodes: the one the
// producer's driver verified before encoding it, or the one the decoder
// admitted from it. Size and instruction count come from that pair and
// from nowhere else; the store stamps the key the unit was filled under.
func newUnit(mod *core.Module, data []byte, meta unitMeta) *Unit {
	return &Unit{Wire: data, Size: len(data), Instrs: mod.NumInstrs(), unitMeta: meta}
}

// admit is how bytes this process did not just produce (a peer's answer,
// a file in the cache directory) become a Unit: they pass the consumer's
// admission, wire.DecodeVerified, or there is no unit.
func admit(data []byte, meta unitMeta) (*Unit, error) {
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		return nil, err
	}
	return newUnit(mod, data, meta), nil
}

const numShards = 16

// Store is the content-addressed unit store: a sharded in-memory LRU in
// front of an optional on-disk store. It has one way in, fill, under the
// shard's singleflight (see lru.fill): an entry exists because a caller
// on this node asked for its key, and concurrent requests for one key
// probe the disk and run the producer pipeline or the peer fetch once.
type Store struct {
	dir    string // "" disables the disk tier
	m      *Metrics
	shards [numShards]lru[*Unit]
}

// NewStore creates a store holding at most maxUnits encoded units in
// memory (rounded up to a per-shard capacity, minimum one per shard).
// dir, when non-empty, enables the on-disk tier; it is created if absent.
func NewStore(dir string, maxUnits int, m *Metrics) (*Store, error) {
	if maxUnits <= 0 {
		maxUnits = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("codeserver: cache dir: %w", err)
		}
	}
	s := &Store{dir: dir, m: m}
	for i := range s.shards {
		s.shards[i] = newLRU[*Unit]((maxUnits+numShards-1)/numShards, &m.evictions, &m.coalesced)
	}
	return s, nil
}

func (s *Store) shardOf(k Key) *lru[*Unit] { return &s.shards[k[0]%numShards] }

// Len reports the number of units resident in memory.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].len()
	}
	return n
}

// fill returns the unit for k from memory, else — one caller at a time per
// key — from the disk tier, else from miss; a nil miss is a lookup with
// nowhere further to ask. Whatever miss returns is published under k in
// memory and then, being the value that won the memory tier, on disk.
// Fill errors are not cached; lru.fill says which of them a coalesced
// caller adopts and after which it starts over. Error accounting is the
// miss callback's job: the store serves every fill flavor.
func (s *Store) fill(ctx context.Context, k Key, miss func(context.Context) (*Unit, error)) (*Unit, fillHow, error) {
	fromDisk := false
	u, how, err := s.shardOf(k).fill(ctx, k, func(ctx context.Context) (u *Unit, err error) {
		_, dsp := obs.Start(ctx, "disk")
		u, fromDisk = s.loadDisk(k)
		dsp.End()
		if !fromDisk {
			if miss == nil {
				return nil, ErrUnitNotFound
			}
			fctx, fsp := obs.Start(ctx, "fill")
			u, err = miss(fctx)
			fsp.End()
			if err != nil {
				return nil, err
			}
		}
		u.Key = k
		return u, nil
	})
	if err == nil && how == led && !fromDisk {
		s.writeDisk(u) // after the memory tier, so a lookup never sees the disk copy first
	}
	return u, how, err
}

// Get returns a unit from the memory or disk tier without compiling.
// Lookups on this path (unit downloads, loader-cache fills) are not
// counted as compile-path cache hits.
func (s *Store) Get(ctx context.Context, k Key) (*Unit, bool) {
	u, _, err := s.fill(ctx, k, nil)
	return u, err == nil
}

// GetOrFill is fill with the compile path's accounting. The second result
// reports whether the unit was served without running fill in this call
// (memory/disk hit); callers that coalesced onto another caller's
// in-flight fill see cached=false.
func (s *Store) GetOrFill(ctx context.Context, k Key, fill func(context.Context) (*Unit, error)) (u *Unit, cached bool, err error) {
	ran := false
	u, how, err := s.fill(ctx, k, func(ctx context.Context) (*Unit, error) {
		ran = true
		return fill(ctx)
	})
	switch {
	case err != nil:
		return nil, false, err
	case how == resident:
		s.m.cacheHits.Add(1)
	case how == led && !ran:
		s.m.diskHits.Add(1)
	default: // this call, or the flight it joined, ran fill
		return u, false, nil
	}
	return u, true, nil
}

func (s *Store) wirePath(k Key) string { return filepath.Join(s.dir, k.String()+".tsa") }
func (s *Store) metaPath(k Key) string { return filepath.Join(s.dir, k.String()+".json") }

// loadDisk re-admits a unit from the disk tier. The directory is one more
// untrusted source — writeDisk does not fsync, so a crash can leave a torn
// .tsa next to an intact sidecar — and gets the same rule as a peer fill:
// the bytes pass admit or they are a miss. A rejected unit's files are
// removed so the key recompiles instead of failing every run.
func (s *Store) loadDisk(k Key) (*Unit, bool) {
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.wirePath(k))
	if err != nil {
		return nil, false
	}
	var meta unitMeta
	if mb, err := os.ReadFile(s.metaPath(k)); err == nil && json.Unmarshal(mb, &meta) != nil {
		meta = unitMeta{}
	}
	u, err := admit(data, meta)
	if err != nil {
		_ = os.Remove(s.wirePath(k))
		_ = os.Remove(s.metaPath(k))
		return nil, false
	}
	return u, true
}

func (s *Store) writeDisk(u *Unit) {
	if s.dir == "" {
		return
	}
	// Best-effort persistence: the disk tier is an optimization, so I/O
	// errors degrade to recompilation rather than failing the request.
	// Both files are published by writing a fresh CreateTemp file and
	// renaming it into place: a fixed ".tmp" name let concurrent writers
	// for the same key truncate each other's half-written file and then
	// rename the torn result over the cache entry, which loadDisk would
	// serve as a (corrupt) unit. The wire file lands before the sidecar,
	// so a reader between the two renames at worst answers without the
	// optimizer's statistics. There is deliberately no fsync: the cache is
	// regenerable from source, so a crash costs at most a recompile —
	// loadDisk re-admits every unit it reads and treats a rejected one as
	// a miss.
	atomicWrite(s.wirePath(u.Key), u.Wire)
	if mb, err := json.Marshal(u.unitMeta); err == nil {
		atomicWrite(s.metaPath(u.Key), mb)
	}
}

// atomicWrite publishes data at path via a unique temp file and rename,
// so readers observe either the previous complete file or the new
// complete file, never a prefix. Errors are swallowed (best-effort tier);
// the temp file is removed on any failure so the cache dir stays clean.
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
