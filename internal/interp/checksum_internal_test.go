package interp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"safetsa/internal/rt"
)

// TestHeapWalkerIsFNV1a: the walker's in-place digest is hash/fnv's
// 64-bit FNV-1a over the same bytes, so every checksum a session reports
// is the one a hash.Hash would have made.
func TestHeapWalkerIsFNV1a(t *testing.T) {
	w, h := &heapWalker{h: fnvOffset}, fnv.New64a()
	for _, v := range []uint64{0, 1, 3, 1<<64 - 1, 0x0123456789abcdef} {
		w.u64(v)
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
		for _, c := range []byte("héllo") {
			w.byte(c)
		}
		h.Write([]byte("héllo"))
		if w.h != h.Sum64() {
			t.Fatalf("after %#x: walker %#x, hash/fnv %#x", v, w.h, h.Sum64())
		}
	}
	if n := testing.AllocsPerRun(100, func() { w.u64(42) }); n != 0 {
		t.Errorf("a write allocates %v times, want 0", n)
	}
}

// sampleHeap is a session whose statics hold each kind of value the walk
// digests: scalars, a string, an array of mixed slots, an object graph
// with a shared reference and a cycle, and null.
func sampleHeap() *Loader {
	ci := &rt.ClassInfo{Name: "Node", NumSlots: 2, TypeID: 40}
	a, b := &rt.Object{Class: ci, Fields: make([]rt.Value, 2)}, &rt.Object{Class: ci, Fields: make([]rt.Value, 2)}
	s := &rt.Str{S: "héllo"}
	a.Fields[0], a.Fields[1] = rt.RefValue(b), rt.RefValue(s)
	b.Fields[0], b.Fields[1] = rt.RefValue(a), rt.IntValue(-7)
	arr := &rt.Array{TypeID: 41, Elems: []rt.Value{rt.RefValue(s), rt.LongValue(1 << 40), rt.RefValue(b), {}}}
	main := &rt.ClassInfo{Name: "Main", TypeID: 39, Statics: []rt.Value{
		rt.IntValue(3), rt.RefValue(arr), rt.RefValue(a), rt.DoubleValue(2.5), {},
	}}
	return &Loader{classes: []*rt.ClassInfo{nil, main, ci}}
}

// fnvHeapChecksum is HeapChecksum spelled over hash/fnv: the same walk,
// each word written to a hash.Hash as its eight little-endian bytes.
func fnvHeapChecksum(l *Loader) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	seen := map[rt.Ref]uint64{}
	var value func(v rt.Value)
	value = func(v rt.Value) {
		if v.R == nil {
			u64(1)
			u64(uint64(v.I))
			return
		}
		if id, ok := seen[v.R]; ok {
			u64(2)
			u64(id)
			return
		}
		seen[v.R] = uint64(len(seen) + 1)
		switch r := v.R.(type) {
		case *rt.Str:
			u64(3)
			h.Write([]byte(r.S))
			u64(uint64(len(r.S)))
		case *rt.Array:
			u64(4)
			u64(uint64(uint32(r.TypeID)))
			u64(uint64(len(r.Elems)))
			for _, e := range r.Elems {
				value(e)
			}
		case *rt.Object:
			u64(5)
			u64(uint64(uint32(r.Class.TypeID)))
			u64(uint64(len(r.Fields)))
			for _, f := range r.Fields {
				value(f)
			}
		}
	}
	for _, ci := range l.classes {
		if ci == nil {
			continue
		}
		u64(uint64(uint32(ci.TypeID)))
		u64(uint64(len(ci.Statics)))
		for _, v := range ci.Statics {
			value(v)
		}
	}
	return h.Sum64()
}

// TestHeapChecksumIsFNVOverTheWalk: over sample heaps, HeapChecksum is
// hash/fnv's digest of the same walk, and checksumming a 10 000-element
// array costs a handful of allocations, not one per word.
func TestHeapChecksumIsFNVOverTheWalk(t *testing.T) {
	l := sampleHeap()
	if got, want := l.HeapChecksum(), fnvHeapChecksum(l); got != want {
		t.Errorf("sample heap: HeapChecksum %#x, hash/fnv over the walk %#x", got, want)
	}
	elems := make([]rt.Value, 10_000)
	for i := range elems {
		elems[i] = rt.IntValue(int32(i))
		if i%100 == 0 {
			elems[i] = rt.RefValue(&rt.Str{S: "s"})
		}
	}
	big := &Loader{classes: []*rt.ClassInfo{{Name: "Big", TypeID: 39,
		Statics: []rt.Value{rt.RefValue(&rt.Array{TypeID: 41, Elems: elems})}}}}
	if got, want := big.HeapChecksum(), fnvHeapChecksum(big); got != want {
		t.Errorf("10 000-element array: HeapChecksum %#x, hash/fnv over the walk %#x", got, want)
	}
	ints := &Loader{classes: []*rt.ClassInfo{{Name: "Ints", TypeID: 39,
		Statics: []rt.Value{rt.RefValue(&rt.Array{TypeID: 41, Elems: make([]rt.Value, 10_000)})}}}}
	if n := testing.AllocsPerRun(10, func() { ints.HeapChecksum() }); n >= 10 {
		t.Errorf("checksumming a 10 000-element array allocates %v times, want fewer than 10", n)
	}
}
