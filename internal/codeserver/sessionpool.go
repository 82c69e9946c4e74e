package codeserver

import "safetsa/internal/interp"

// sessionPool is the warm-session pool: per-unit snapshots of
// post-static-init interpreter state (interp.Snapshot), built lazily by
// the first successful run of a unit and cloned for every later run, so
// the static initializers execute once per unit instead of once per
// request. Entries are LRU-bounded; a snapshot is only
// published after Snapshot.Verify proves a probe clone reproduces the
// frozen heap checksum, init output, and budget drain byte-exactly.
//
// Units whose static init fails (deterministically or by budget kill)
// never produce a snapshot — every request for them runs fresh and
// observes the exact fresh-session failure. Requests whose budgets are
// too tight to have survived init are declined by the server (see
// Snapshot.Admits) and also run fresh.
//
// An entry pins the loaded unit its snapshot was taken of: a clone runs
// the unit's shared compiled form, and pulls through the unit's cursor
// the bodies no session has called yet, into the unit's arena. So the
// entry is one of the unit's holders, and lets go of it when it leaves
// the pool (DESIGN.md §9).
type sessionPool struct {
	m     *Metrics
	snaps lru[pooled]
}

// pooled is a pool entry: a snapshot and the unit it pins.
type pooled struct {
	snap *interp.Snapshot
	lu   *LoadedUnit
}

func newSessionPool(max int, m *Metrics) *sessionPool {
	p := &sessionPool{m: m, snaps: newLRU[pooled](max, &m.poolEvictions, nil)}
	p.snaps.drop = func(e pooled) { e.lu.letGo() }
	return p
}

// Get returns the warm snapshot for k and the unit it pins, bumping its
// recency, or a nil snapshot when the pool holds none. The caller holds
// neither; a session cloned from the snapshot acquires the unit first.
func (p *sessionPool) Get(k Key) (*interp.Snapshot, *LoadedUnit) {
	e, _ := p.snaps.get(k)
	return e.snap, e.lu
}

// Offer snapshots a session of lu, which the caller holds, that just
// finished static init and, when no snapshot for k exists yet, verifies
// and publishes it. initOut is the output the session printed during
// init. Racing offers are benign: both build identical snapshots (the
// clone machinery is deterministic) and the first insert wins.
func (p *sessionPool) Offer(k Key, lu *LoadedUnit, l *interp.Loader, initOut []byte) {
	if _, ok := p.snaps.get(k); ok {
		return // the snapshot+verify work would be discarded
	}
	snap, err := l.Snapshot(initOut)
	if err == nil {
		// A snapshot that cannot reproduce itself must never serve
		// traffic; the counter is the alarm (this indicates a clone
		// machinery bug, not a property of the unit).
		err = snap.Verify()
	}
	if err != nil {
		p.m.poolVerifyFails.Add(1)
		return
	}
	lu.acquire() // cannot fail: the caller's hold keeps lu alive
	if p.snaps.add(k, pooled{snap, lu}) {
		p.m.poolBuilds.Add(1)
	} else {
		lu.letGo()
	}
}

// forget drops k's snapshot, if pooled.
func (p *sessionPool) forget(k Key) { p.snaps.remove(k) }

// Len reports the pooled snapshot count.
func (p *sessionPool) Len() int { return p.snaps.len() }
