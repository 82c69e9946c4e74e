package interp

import (
	"bytes"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the warm-session-pool substrate: static initialization of
// a unit runs once per (module, engine), its post-init state is frozen
// into a Snapshot, and subsequent sessions clone the snapshot instead of
// re-running the initializers. The soundness contract is byte-exactness:
// a session served from a clone must be indistinguishable — printed
// output, error text, kill reason, step/alloc budget drain, object
// identity hashes, and the deterministic heap checksum — from a fresh
// session that ran static init itself. The pieces that make that hold:
//
//   - rt.Cloner preserves aliasing, cycles, and object ids, and charges
//     nothing; NewSession replays the initializers' recorded step/alloc
//     drain and output bytes onto the clone's Env instead, so budgets
//     and output land exactly where a fresh session would put them.
//   - The clone walk is deterministic (classes in TypeID order, values
//     in field/element order — the same visit order HeapChecksum uses),
//     and Verify() checks a probe clone against the recorded checksum
//     before a snapshot is ever served.
//   - A snapshot only forms when static init SUCCEEDS under the
//     building session's budgets. Sessions whose budgets are too tight
//     to survive init (Admits reports false) are declined and must run
//     fresh, so mid-init kills keep their exact fresh-session behavior.

// Snapshot is the frozen post-static-init state of one (module, engine)
// pair: a detached deep copy of every class's statics and the heap
// reachable from them, the initializers' printed bytes and budget
// drain, the object-id cursor, and the heap checksum at freeze time.
// A Snapshot is immutable once built and may serve concurrent
// NewSession calls.
type Snapshot struct {
	mod  *core.Module
	prep *Prepared
	comp *Compiled

	// classes is a detached class table holding the frozen statics: it
	// shares nothing with the building session, so the builder can keep
	// executing (and mutating its own statics) after the snapshot is
	// taken, and be released. The frozen heap lives in the detached
	// loader's own environment, which nothing releases.
	classes []*rt.ClassInfo

	initOut    []byte
	initSteps  int64
	initAllocs int64
	nextID     int64
	checksum   uint64
}

// copyStatics clones every class's statics from src into dst, two class
// tables of one module, with one shared cloner allocating in env's heap,
// preserving aliasing across classes. Both are indexed by TypeID, which
// is the visit order the checksum walk uses too.
func copyStatics(src, dst []*rt.ClassInfo, env *rt.Env) {
	pair := make(map[*rt.ClassInfo]*rt.ClassInfo, len(src))
	for id, ci := range src {
		if ci != nil {
			pair[ci] = dst[id]
		}
	}
	c := rt.NewCloner(env, pair)
	for id, ci := range src {
		if ci == nil {
			continue
		}
		to := dst[id].Statics
		for i, v := range ci.Statics {
			to[i] = c.Value(v)
		}
	}
}

// Snapshot freezes the session's current state (normally: immediately
// after RunStaticInit succeeded, before RunMain). initOut is the output
// the session has printed so far; NewSession replays it so a clone's
// response carries the same bytes a fresh session would print during
// init. The snapshot shares the session's compiled form, cursor included:
// a clone lowers — and pulls — what it calls first as any session of the
// form does.
func (l *Loader) Snapshot(initOut []byte) (*Snapshot, error) {
	if l.released {
		return nil, errReleased
	}
	env := rt.Unbudgeted(nil, "holds the frozen class table; static init is deferred and never run")
	detached, err := newLoader(&Loader{Mod: l.Mod, Env: env}, false)
	if err != nil {
		return nil, err
	}
	copyStatics(l.classes, detached.classes, env)
	s := &Snapshot{
		mod:        l.Mod,
		prep:       l.prep,
		comp:       l.comp,
		classes:    detached.classes,
		initOut:    append([]byte(nil), initOut...),
		initSteps:  l.Env.Steps,
		initAllocs: l.Env.Allocs,
		nextID:     l.Env.NextID(),
		checksum:   l.HeapChecksum(),
	}
	return s, nil
}

// InitSteps is the step budget static initialization drained.
func (s *Snapshot) InitSteps() int64 { return s.initSteps }

// InitAllocs is the allocation budget static initialization drained.
func (s *Snapshot) InitAllocs() int64 { return s.initAllocs }

// Checksum is the deterministic heap checksum at freeze time.
func (s *Snapshot) Checksum() uint64 { return s.checksum }

// Admits reports whether a session under budget b would have survived
// static initialization. A session it rejects must run fresh: its fresh
// run dies mid-init, a state a cheap clone cannot reproduce.
func (s *Snapshot) Admits(b rt.Budget) bool {
	if b.MaxSteps > 0 && b.MaxSteps < s.initSteps {
		return false
	}
	if b.MaxAlloc > 0 && b.MaxAlloc < s.initAllocs {
		return false
	}
	return true
}

// NewSession builds a ready-to-RunMain session from the snapshot: a
// fresh class table, a deep copy of the frozen statics and heap, the
// initializers' output replayed to env.Out, their budget drain
// pre-charged (without tripping limits — callers gate on Admits), and
// the object-id cursor restored so identity hashes continue exactly
// where a fresh session's would.
func (s *Snapshot) NewSession(env *rt.Env) (*Loader, error) {
	l, err := LoadTrustedDeferred(s.mod, s.prep, s.comp, env)
	if err != nil {
		return nil, err
	}
	copyStatics(s.classes, l.classes, env)
	if len(s.initOut) > 0 && env.Out != nil {
		if _, err := env.Out.Write(s.initOut); err != nil {
			return nil, fmt.Errorf("interp: snapshot output replay: %w", err)
		}
	}
	env.Steps += s.initSteps
	env.Allocs += s.initAllocs
	env.SetNextID(s.nextID)
	return l, nil
}

// Verify probes the snapshot's integrity before it is served: a
// throwaway clone must reproduce the recorded heap checksum and init
// output byte-exactly. It catches any nondeterminism or aliasing loss
// in the clone machinery at pool-insert time, once per snapshot,
// instead of letting a corrupt snapshot serve divergent sessions. The
// probe is released once it is compared: nothing of it outlives Verify,
// so its heap and frames go to the next session.
func (s *Snapshot) Verify() error {
	var out bytes.Buffer
	l, err := s.NewSession(rt.Unbudgeted(&out, "a probe clone, checksummed and released; RunMain is never called"))
	if err != nil {
		return fmt.Errorf("interp: snapshot verify: %w", err)
	}
	defer l.Release()
	if got := l.HeapChecksum(); got != s.checksum {
		return fmt.Errorf("interp: snapshot clone checksum %#x != frozen %#x", got, s.checksum)
	}
	if !bytes.Equal(out.Bytes(), s.initOut) {
		return fmt.Errorf("interp: snapshot clone init output diverges: %q != %q", out.Bytes(), s.initOut)
	}
	if l.Env.Steps != s.initSteps || l.Env.Allocs != s.initAllocs {
		return fmt.Errorf("interp: snapshot clone budget drain %d/%d != frozen %d/%d",
			l.Env.Steps, l.Env.Allocs, s.initSteps, s.initAllocs)
	}
	return nil
}
