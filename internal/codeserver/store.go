package codeserver

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"safetsa/internal/obs"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// Unit is one compiled distribution unit: the producer pipeline's output
// for a content key. Units are immutable once published.
type Unit struct {
	Key       Key       `json:"-"`
	Wire      []byte    `json:"-"`
	Size      int       `json:"size"`
	Instrs    int       `json:"instructions"`
	Optimized bool      `json:"optimized"`
	OptStats  opt.Stats `json:"opt_stats"`
}

const numShards = 16

// Store is the content-addressed unit store: a sharded in-memory LRU in
// front of an optional on-disk store, with singleflight on fills (see
// lru.fill) so that concurrent requests for the same key run the producer
// pipeline exactly once.
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

// Get returns a unit from the memory or disk tier without compiling.
// Lookups on this path (unit downloads, loader-cache fills) are not
// counted as compile-path cache hits.
func (s *Store) Get(k Key) (*Unit, bool) {
	sh := s.shardOf(k)
	if u, ok := sh.get(k); ok {
		return u, true
	}
	if u, ok := s.loadDisk(k); ok {
		sh.add(k, u)
		return u, true
	}
	return nil, false
}

// GetOrFill returns the unit for k, running fill (under the shard's
// singleflight) on a miss. The second result reports whether the unit was
// served without running fill in this call (memory/disk hit); callers that
// coalesced onto another caller's in-flight fill see cached=false. Fill
// errors are not cached; lru.fill says which of them a coalesced caller
// adopts and after which it starts over. Error accounting (compile vs
// peer-fill failure) is the fill callback's job: the store serves both
// fill flavors.
func (s *Store) GetOrFill(ctx context.Context, k Key, fill func(context.Context) (*Unit, error)) (u *Unit, cached bool, err error) {
	fromDisk := false
	u, how, err := s.shardOf(k).fill(ctx, k, func(ctx context.Context) (*Unit, error) {
		_, dsp := obs.Start(ctx, "disk")
		du, ok := s.loadDisk(k)
		dsp.End()
		if ok {
			s.m.diskHits.Add(1)
			fromDisk = true
			return du, nil
		}
		fctx, fsp := obs.Start(ctx, "fill")
		defer fsp.End()
		fu, err := fill(fctx)
		if err != nil {
			return nil, err
		}
		fu.Key = k
		return fu, nil
	})
	switch {
	case err != nil:
		return nil, false, err
	case how == resident:
		s.m.cacheHits.Add(1)
	case how == led && !fromDisk:
		s.writeDisk(u) // after the memory tier, so Get never sees disk first
	}
	return u, how == resident || fromDisk, nil
}

// Put publishes an already-admitted unit into both tiers, bypassing the
// fill path. It is the landing point for hot-unit replicas pushed by a
// fleet peer — the caller must have run the unit through the local
// admission path (Server.AdmitUnit) first; raw peer bytes never enter
// the store.
func (s *Store) Put(u *Unit) {
	s.shardOf(u.Key).add(u.Key, u)
	s.writeDisk(u)
}

// unitMeta is the sidecar the disk tier keeps next to the raw wire bytes:
// the producer-side facts a /compile answer carries that the unit itself
// does not encode.
type unitMeta struct {
	Optimized bool      `json:"optimized"`
	OptStats  opt.Stats `json:"opt_stats"`
}

func (s *Store) wirePath(k Key) string { return filepath.Join(s.dir, k.String()+".tsa") }
func (s *Store) metaPath(k Key) string { return filepath.Join(s.dir, k.String()+".json") }

// loadDisk re-admits a unit from the disk tier. The directory is one more
// untrusted source — writeDisk does not fsync, so a crash can leave a torn
// .tsa next to an intact sidecar — and gets the same rule as a peer fill:
// the bytes pass wire.DecodeVerified or they are a miss. A rejected unit's
// files are removed so the key recompiles instead of failing every run.
func (s *Store) loadDisk(k Key) (*Unit, bool) {
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.wirePath(k))
	if err != nil {
		return nil, false
	}
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		_ = os.Remove(s.wirePath(k))
		_ = os.Remove(s.metaPath(k))
		return nil, false
	}
	u := &Unit{Key: k, Wire: data, Size: len(data), Instrs: mod.NumInstrs()}
	if mb, err := os.ReadFile(s.metaPath(k)); err == nil {
		var meta unitMeta
		if json.Unmarshal(mb, &meta) == nil {
			u.Optimized, u.OptStats = meta.Optimized, meta.OptStats
		}
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
	if mb, err := json.Marshal(unitMeta{Optimized: u.Optimized, OptStats: u.OptStats}); err == nil {
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
