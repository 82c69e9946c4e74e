package rt

import (
	"unsafe"

	"safetsa/internal/core"
)

// This file is the session heap: where every guest-visible Object, Array
// and Str header, every object's field vector and every small array's
// elements come from. A session carves them out of chunks — one host
// allocation per chunk, not two per `new` — and a session that is
// released (Env.Release) gives its chunks, cleared, to the process-wide
// stocks (core.Stock) the next session takes its own from. DESIGN.md §9
// argues the memory bound and why recycling keeps sessions apart.
//
// The bounds are constants. A slab's chunks grow geometrically from a
// small first one, so a session that allocates one object takes one small
// chunk per kind; a slot vector longer than smallSlots — an array's
// elements, an object's fields — is its own allocation;
// and a session keeps at most KeepBytes of chunks for recycling — what it
// allocates past that is never stocked, so the collector reclaims it as
// before, and a guest that churns through its whole allocation budget
// pins no more than KeepBytes once it is released.

const (
	// KeepBytes bounds the chunk bytes one session hands back for reuse
	// (DESIGN.md §9 derives what the stocks may hold from it).
	KeepBytes = 4 << 20
	// smallSlots is the longest slot vector — an object's fields, an
	// array's elements — carved from the value slab; a longer one is its
	// own allocation.
	smallSlots = 256
	// maxClasses bounds the size classes of any kind.
	maxClasses = 8
)

// chunk is one slab allocation: buf is handed out element by element and
// recycled whole, through its kind's stock of its size class.
type chunk[T any] struct {
	buf   []T
	class int
	k     *kind[T]
	// dirty marks a chunk poisoned when it was given back; it is zeroed
	// when handed out again.
	dirty bool
	// next links the chunks one session took of one kind, newest first.
	next *chunk[T]
}

// Rewind clears the chunk — or, while core.Poisoning, fills it with its
// kind's poison — and reports its bytes.
func (ch *chunk[T]) Rewind() int {
	if core.Poisoning() {
		for i := range ch.buf {
			ch.buf[i] = ch.k.poison
		}
		ch.dirty = true
	} else {
		clear(ch.buf)
	}
	return len(ch.buf) * ch.k.elem
}

// kind is the shape of one slab: chunks of class c hold first<<c
// elements, for c below classes, each class stocked apart under the
// kind's one stock name; poison is what fills a chunk given back while
// core.Poisoning.
type kind[T any] struct {
	first, classes int
	elem           int // bytes per element
	stocks         [maxClasses]*core.Stock[*chunk[T]]
	poison         T
}

func newKind[T any](name string, first, classes int, poison T) *kind[T] {
	k := &kind[T]{first: first, classes: classes, elem: int(unsafe.Sizeof(poison)), poison: poison}
	for c := range classes {
		k.stocks[c] = core.NewStock(name, KeepBytes, func() *chunk[T] {
			return &chunk[T]{buf: make([]T, first<<c), class: c, k: k}
		})
	}
	return k
}

var (
	objects = newKind("rt.objects", 8, 6, Object{Class: poisonClass, Fields: poisonSlots, id: -1})
	arrays  = newKind("rt.arrays", 8, 6, Array{Elems: poisonSlots, TypeID: -1})
	strs    = newKind("rt.strs", 8, 6, *poisonStr)
	values  = newKind("rt.values", 32, 7, poisonValue)
)

// What a released chunk holds while core.Poisoning: a reference kept past
// its session's release reads a class no module declares, a string no
// guest wrote and a scalar no guest computed.
var (
	poisonStr   = &Str{S: "\x00recycled\x00", u16: asciiView}
	poisonValue = Value{I: 0x5afe75a5afe75a, R: poisonStr}
	poisonSlots = []Value{poisonValue, poisonValue, poisonValue, poisonValue}
	poisonClass = &ClassInfo{Name: "\x00recycled\x00", TypeID: -1, NumSlots: len(poisonSlots)}
)

// slab hands out one kind's elements from the current chunk.
type slab[T any] struct {
	free []T // the current chunk's unused tail
	used *chunk[T]
	// class is the size class of the next chunk.
	class int
}

// heap is one session's slabs and what it has kept of them.
type heap struct {
	objs slab[Object]
	arrs slab[Array]
	strs slab[Str]
	vals slab[Value]
	// kept is the bytes of chunks the session will hand back for reuse.
	kept int
}

// one hands out a zeroed element.
func (s *slab[T]) one(k *kind[T], h *heap) *T {
	if len(s.free) == 0 {
		s.grow(1, k, h)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// many hands out n zeroed elements, n at most smallSlots.
func (s *slab[T]) many(n int, k *kind[T], h *heap) []T {
	if len(s.free) < n {
		s.grow(n, k, h)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// grow starts a chunk of at least n elements — the next size class, or a
// larger one n needs — from its stock while the session keeps less than
// KeepBytes, and from a plain allocation after that. What was left of the
// previous chunk stays unused.
func (s *slab[T]) grow(n int, k *kind[T], h *heap) {
	c := s.class
	for k.first<<c < n {
		c++
	}
	s.class = min(c+1, k.classes-1)
	size := k.first << c
	bytes := size * k.elem
	if h.kept+bytes > KeepBytes {
		s.free = make([]T, size)
		return
	}
	h.kept += bytes
	ch := k.stocks[c].Take()
	if ch.dirty {
		clear(ch.buf)
		ch.dirty = false
	}
	ch.next, s.used = s.used, ch
	s.free = ch.buf
}

// release gives every chunk the slab kept back to its stock.
func (s *slab[T]) release(k *kind[T]) {
	for ch := s.used; ch != nil; {
		next := ch.next
		ch.next = nil
		k.stocks[ch.class].Give(ch)
		ch = next
	}
	*s = slab[T]{}
}

// Release ends the session's heap: every chunk it kept is given back to
// its stock, cleared (or poisoned), for the next session. Nothing the
// session allocated may be reachable afterwards from anything that
// outlives it — interp.Loader.Release is the one caller, once its run is
// answered. The environment may allocate again afterwards, from fresh
// chunks.
func (e *Env) Release() {
	h := &e.heap
	h.objs.release(objects)
	h.arrs.release(arrays)
	h.strs.release(strs)
	h.vals.release(values)
	h.kept = 0
}

// object is a heap object of class c with n zeroed fields and identity
// id, charging nothing.
func (e *Env) object(c *ClassInfo, n int, id int64) *Object {
	h := &e.heap
	o := h.objs.one(objects, h)
	o.Class, o.id = c, id
	o.Fields = h.slots(n)
	return o
}

// slots is a zeroed slot vector of n values: from the value slab when it
// is short, its own allocation when not.
func (h *heap) slots(n int) []Value {
	if n > smallSlots {
		return make([]Value, n)
	}
	return h.vals.many(n, values, h)
}

// array is a heap array of n zero values, charging nothing.
func (e *Env) array(n int, typeID int32) *Array {
	h := &e.heap
	a := h.arrs.one(arrays, h)
	a.TypeID = typeID
	a.Elems = h.slots(n)
	return a
}

// Str is a string instance of text s in the session's heap, charging
// nothing: for text the allocation budget does not count — a constant, a
// conversion's digits, an exception's message, a substring of a string
// already paid for. NewStr is the charged form.
func (e *Env) Str(s string) *Str {
	h := &e.heap
	p := h.strs.one(strs, h)
	p.S = s
	return p
}

// Fresh is a new instance of c's text in the session's heap: a distinct
// reference, as every evaluation of a constant and every clone must be,
// that keeps what c knows about its text only when that is the shared
// ASCII mark.
func (e *Env) Fresh(c *Str) *Str {
	p := e.Str(c.S)
	if c.u16 == asciiView {
		p.u16 = asciiView
	}
	return p
}
