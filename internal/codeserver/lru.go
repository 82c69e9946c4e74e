package codeserver

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// lru is the one per-unit cache under the store and the loader cache: a
// mutex, a recency list bounded at max entries, insert-if-absent, and one
// singleflight (fill), the one way in. Errors are never cached.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*list.Element // values are lruEntry[V]
	order   *list.List            // front = most recently used
	flights map[Key]*flight[V]

	evictions *atomic.Int64 // entries pushed out at capacity
	// joins counts callers waiting on or served by another caller's
	// flight; a waiter that starts over takes its count back.
	joins *atomic.Int64
	// drop, when set, is called once for every value that leaves the
	// cache, by eviction or remove, after c.mu is let go: the cache's
	// hold on a value ends there (LoadedUnit). A flight's value that
	// never went in never left.
	drop func(V)
}

type lruEntry[V any] struct {
	k Key
	v V
}

type flight[V any] struct {
	done chan struct{} // closed after the fields below are set
	v    V
	err  error
	// abandoned: fn failed and the leader's own context was done by then,
	// so the error says nothing about the key.
	abandoned bool
}

// fillHow says where fill's value came from.
type fillHow int

const (
	resident fillHow = iota // already cached; fn did not run
	led                     // this caller ran fn
	joined                  // another caller's flight supplied it
)

// newLRU creates a cache of at most max entries that counts into the
// caller's metrics; joins may be nil when nothing reads it.
func newLRU[V any](max int, evictions, joins *atomic.Int64) lru[V] {
	if joins == nil {
		joins = new(atomic.Int64)
	}
	return lru[V]{
		max:       max,
		entries:   make(map[Key]*list.Element),
		order:     list.New(),
		flights:   make(map[Key]*flight[V]),
		evictions: evictions,
		joins:     joins,
	}
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get returns the value cached for k and makes it the most recent.
func (c *lru[V]) get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(k)
}

// remove drops k's entry, if any. A flight in progress for k is left to
// finish: it publishes what it found.
func (c *lru[V]) remove(k Key) {
	c.mu.Lock()
	el, ok := c.entries[k]
	var out V
	if ok {
		out = c.order.Remove(el).(lruEntry[V]).v
		delete(c.entries, k)
	}
	c.mu.Unlock()
	c.dropped(out, ok)
}

// dropped reports v to the drop hook when it left the cache.
func (c *lru[V]) dropped(v V, left bool) {
	if left && c.drop != nil {
		c.drop(v)
	}
}

// touch is get with c.mu held.
func (c *lru[V]) touch(k Key) (v V, ok bool) {
	el, ok := c.entries[k]
	if ok {
		c.order.MoveToFront(el)
		v = el.Value.(lruEntry[V]).v
	}
	return v, ok
}

// insert caches v for k, with c.mu held, unless k is already cached (the
// resident value wins), evicts from the cold end past capacity, and
// reports whether v went in. It returns the value it pushed out at
// capacity, if it did, for the caller to report once c.mu is let go: the
// cache held at most max entries before, so one insert evicts one at most.
func (c *lru[V]) insert(k Key, v V) (added bool, out V, evicted bool) {
	if _, ok := c.touch(k); ok {
		return false, out, false
	}
	c.entries[k] = c.order.PushFront(lruEntry[V]{k, v})
	if c.order.Len() > c.max {
		old := c.order.Remove(c.order.Back()).(lruEntry[V])
		delete(c.entries, old.k)
		c.evictions.Add(1)
		out, evicted = old.v, true
	}
	return true, out, evicted
}

// fill returns the value for k, running fn on a miss with concurrent
// callers for one key coalesced onto one run of fn. A caller that joined a
// flight adopts its outcome, with two exceptions in which the flight
// taught it nothing about its own request, so it starts over (leads or
// joins the next flight) as long as its own context is live:
//
//   - the flight ended in ErrUnitNotFound: one key serves compiles and
//     peer lookups, and only the lookup can come up empty;
//   - the flight was abandoned: its leader's context ended mid-fn.
//
// Every other error, a stage deadline included, is fn's verdict on the key
// and is handed to all waiters, so a pathological fill runs once, not once
// per waiter. A waiter whose context ends first returns its own ctx.Err().
func (c *lru[V]) fill(ctx context.Context, k Key, fn func(context.Context) (V, error)) (V, fillHow, error) {
	var zero V
	for {
		c.mu.Lock()
		if v, ok := c.touch(k); ok {
			c.mu.Unlock()
			return v, resident, nil
		}
		fl, ok := c.flights[k]
		if !ok {
			break // this caller leads; c.mu stays held
		}
		c.mu.Unlock()
		c.joins.Add(1)
		select {
		case <-fl.done:
			if fl.err == nil || !(fl.abandoned || errors.Is(fl.err, ErrUnitNotFound)) {
				return fl.v, joined, fl.err
			}
			if err := ctx.Err(); err != nil {
				return zero, joined, err
			}
			c.joins.Add(-1)
		case <-ctx.Done():
			return zero, joined, ctx.Err()
		}
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.flights[k] = fl
	c.mu.Unlock()

	fl.v, fl.err = fn(ctx)
	fl.abandoned = fl.err != nil && ctx.Err() != nil
	var out V
	evicted := false
	c.mu.Lock()
	delete(c.flights, k)
	if fl.err == nil {
		_, out, evicted = c.insert(k, fl.v)
	}
	c.mu.Unlock()
	close(fl.done)
	c.dropped(out, evicted)
	return fl.v, led, fl.err
}
