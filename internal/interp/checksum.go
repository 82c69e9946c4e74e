package interp

import "safetsa/internal/rt"

// HeapChecksum digests the session's reachable guest heap — every value
// reachable from the static fields of every class, walked in a
// deterministic order — into a 64-bit FNV-1a checksum. Two sessions
// that executed the same program to the same final state produce the
// same checksum regardless of engine, allocation order, or Go pointer
// values: references are named by their first-visit order in the
// deterministic walk, not by identity hashes. A released session's statics
// are cleared (Release), so its checksum digests zeroes.
func (l *Loader) HeapChecksum() uint64 {
	w := &heapWalker{h: fnvOffset, seen: make(map[rt.Ref]uint64)}
	// The class table is indexed by TypeID, so this is TypeID order.
	for _, ci := range l.classes {
		if ci == nil {
			continue
		}
		w.u64(uint64(uint32(ci.TypeID)))
		w.u64(uint64(len(ci.Statics)))
		w.values(ci.Statics)
	}
	return w.h
}

// FNV-1a's 64-bit offset basis and prime (hash/fnv's New64a).
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// heapWalker digests in place: h is FNV-1a over the bytes written so far,
// so a write costs no allocation, as a slice passed to a hash.Hash does.
type heapWalker struct {
	h    uint64
	seen map[rt.Ref]uint64
}

// u64 writes v's eight bytes, least significant first.
func (w *heapWalker) u64(v uint64) {
	for i := 0; i < 8; i++ {
		w.byte(byte(v >> (8 * i)))
	}
}

func (w *heapWalker) byte(b byte) {
	w.h = (w.h ^ uint64(b)) * fnvPrime
}

// values digests vs and everything reachable from them, depth first in
// slot order. The walk keeps its own stack of slot vectors still to be
// visited instead of recursing: how deep the heap goes is the guest's
// choice, not a bound on the host's stack.
func (w *heapWalker) values(vs []rt.Value) {
	stack := [][]rt.Value{vs}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(*top) == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		v := (*top)[0]
		*top = (*top)[1:]
		if kids := w.value(v); len(kids) > 0 {
			stack = append(stack, kids)
		}
	}
}

// value digests one value and returns the slots of a reference seen for
// the first time, which the walk visits next.
func (w *heapWalker) value(v rt.Value) []rt.Value {
	if v.R == nil {
		// A flat value: the one scalar word, whatever plane it holds.
		w.u64(1)
		w.u64(uint64(v.I))
		return nil
	}
	if id, ok := w.seen[v.R]; ok {
		w.u64(2)
		w.u64(id)
		return nil
	}
	id := uint64(len(w.seen) + 1)
	w.seen[v.R] = id
	switch r := v.R.(type) {
	case *rt.Str:
		w.u64(3)
		for i := 0; i < len(r.S); i++ {
			w.byte(r.S[i])
		}
		w.u64(uint64(len(r.S)))
	case *rt.Array:
		w.u64(4)
		w.u64(uint64(uint32(r.TypeID)))
		w.u64(uint64(len(r.Elems)))
		return r.Elems
	case *rt.Object:
		w.u64(5)
		w.u64(uint64(uint32(r.Class.TypeID)))
		w.u64(uint64(len(r.Fields)))
		return r.Fields
	default:
		w.u64(6)
	}
	return nil
}
