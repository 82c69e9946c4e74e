package rt

import (
	"testing"

	"safetsa/internal/core"
)

// chunkSizes lists the sizes of the chunks a slab kept, oldest first.
func chunkSizes[T any](s *slab[T]) []int {
	var out []int
	for ch := s.used; ch != nil; ch = ch.next {
		out = append([]int{len(ch.buf)}, out...)
	}
	return out
}

// TestHeapGrowsGeometrically: a slab's chunks double from a small first
// one up to its largest class, and stay there; a request larger than the
// next class skips ahead to a class that holds it.
func TestHeapGrowsGeometrically(t *testing.T) {
	e := &Env{}
	c := &ClassInfo{Name: "C", NumSlots: 2}
	for range 8 + 16 + 32 + 64 + 128 + 256 + 256 {
		e.NewObject(c)
	}
	want := []int{8, 16, 32, 64, 128, 256, 256}
	if got := chunkSizes(&e.heap.objs); !equalInts(got, want) {
		t.Errorf("object chunks %v, want %v", got, want)
	}
	// One object's worth of fields took the first value chunk, not more.
	one := &Env{}
	one.NewObject(c)
	if got := chunkSizes(&one.heap.vals); !equalInts(got, []int{32}) {
		t.Errorf("one object's fields took value chunks %v, want [32]", got)
	}
	// A 200-element array needs the 256 class: the value slab jumps to it.
	one.NewArray(200, 1)
	if got := chunkSizes(&one.heap.vals); !equalInts(got, []int{32, 256}) {
		t.Errorf("after a 200-element array: value chunks %v, want [32 256]", got)
	}
	// An array past smallSlots is its own allocation.
	big := one.NewArray(smallSlots+1, 1)
	if got := chunkSizes(&one.heap.vals); !equalInts(got, []int{32, 256}) || cap(big.Elems) != smallSlots+1 {
		t.Errorf("a %d-element array took value chunks %v (cap %d)", smallSlots+1, got, cap(big.Elems))
	}
	// So is an object with more fields than that.
	wide := one.NewObject(&ClassInfo{Name: "W", NumSlots: 5000})
	if got := chunkSizes(&one.heap.vals); !equalInts(got, []int{32, 256}) || len(wide.Fields) != 5000 {
		t.Errorf("a 5000-field object took value chunks %v (%d fields)", got, len(wide.Fields))
	}
	e.Release()
	one.Release()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fillHeap allocates objects, arrays and strings in e and writes every
// slot, so that what a later session reads of recycled memory is not zero
// by accident.
func fillHeap(e *Env, n int) []*Object {
	c := &ClassInfo{Name: "C", NumSlots: 3}
	var objs []*Object
	for i := range n {
		o := e.NewObject(c)
		a := e.NewArray(4, 7)
		for j := range a.Elems {
			a.Elems[j] = IntValue(int32(i + j + 1))
		}
		o.Fields[0] = RefValue(a)
		o.Fields[1] = RefValue(e.Str("héllo"))
		o.Fields[2] = IntValue(int32(i + 1))
		AsStr(o.Fields[1].R).Len() // fills the string's UTF-16 view
		objs = append(objs, o)
	}
	return objs
}

// TestHeapRecyclesZeroed: a released session's chunks are what the next
// session is carved from, and every element it is handed reads as zero —
// cleared at release, or, when the chunk was poisoned, when handed out.
func TestHeapRecyclesZeroed(t *testing.T) {
	for _, poison := range []bool{false, true} {
		core.PoisonRecycled(poison)
		reused := false
		for try := 0; try < 10 && !reused; try++ {
			a := &Env{}
			fillHeap(a, 500)
			var first *Object // the oldest chunk's: the 8-object class
			for ch := a.heap.objs.used; ch != nil; ch = ch.next {
				first = &ch.buf[0]
			}
			a.Release()

			b := &Env{}
			c := &ClassInfo{Name: "D", NumSlots: 3}
			for i := range 500 {
				o := b.NewObject(c)
				if o.id != int64(i+1) || o.Class != c || len(o.Fields) != 3 {
					t.Fatalf("poison %v: object %d handed out as %+v", poison, i, o)
				}
				for _, v := range o.Fields {
					if v != (Value{}) {
						t.Fatalf("poison %v: object %d has a recycled field %+v", poison, i, v)
					}
				}
				arr := b.NewArray(4, 9)
				for _, v := range arr.Elems {
					if v != (Value{}) || arr.TypeID != 9 {
						t.Fatalf("poison %v: array %d has a recycled element %+v (type %d)", poison, i, v, arr.TypeID)
					}
				}
				if s := b.Str("x"); s.S != "x" || s.u16 != nil {
					t.Fatalf("poison %v: string %d handed out as %+v", poison, i, s)
				}
				if i == 0 {
					reused = o == first
				}
			}
			b.Release()
		}
		if !reused && !raceEnabled {
			t.Errorf("poison %v: ten released sessions never handed their first chunk to the next", poison)
		}
	}
	core.PoisonRecycled(false)
}

// TestHeapPoisonsReleased: under core.PoisonRecycled a reference kept past
// its session's release reads the poison class, fields and string, not
// the object it named.
func TestHeapPoisonsReleased(t *testing.T) {
	core.PoisonRecycled(true)
	defer core.PoisonRecycled(false)
	e := &Env{}
	objs := fillHeap(e, 40)
	e.Release()
	o := objs[7]
	if o.Class != poisonClass || o.Fields[0] != poisonValue || Identity(o) != -1 {
		t.Fatalf("a released object reads %+v", o)
	}
	if s, ok := GetStr(o.Fields[0].R); !ok || s != poisonStr.S {
		t.Fatalf("a released field reads %+v", o.Fields[0])
	}
}

// TestHeapKeepsAtMostCap: a session keeps at most KeepBytes of chunks for
// recycling, however much it allocates; what it allocates past that is
// never stocked, and releasing it clears every chunk it kept.
func TestHeapKeepsAtMostCap(t *testing.T) {
	e := &Env{}
	c := &ClassInfo{Name: "C", NumSlots: 6}
	// Each object is a 40-byte header and 144 bytes of fields: 3 × KeepBytes.
	n := 3 * KeepBytes / 184
	for i := range n {
		e.NewObject(c).Fields[5] = IntValue(int32(i) + 1)
		e.Str("s")
	}
	held := 0
	held += keptBytes(&e.heap.objs, objects)
	held += keptBytes(&e.heap.arrs, arrays)
	held += keptBytes(&e.heap.strs, strs)
	held += keptBytes(&e.heap.vals, values)
	if held != e.heap.kept || held > KeepBytes || held < KeepBytes/2 {
		t.Fatalf("kept %d bytes of chunks (booked %d), cap %d", held, e.heap.kept, KeepBytes)
	}
	var listed [][]Value
	for ch := e.heap.vals.used; ch != nil; ch = ch.next {
		listed = append(listed, ch.buf)
	}
	e.Release()
	for i, buf := range listed {
		for _, v := range buf {
			if v != (Value{}) {
				t.Fatalf("value chunk %d of %d was stocked holding %+v", i, len(listed), v)
			}
		}
	}
	if e.heap.kept != 0 || e.heap.objs.used != nil || e.heap.vals.used != nil {
		t.Error("a released heap still lists its chunks")
	}
}

func keptBytes[T any](s *slab[T], k *kind[T]) int {
	n := 0
	for ch := s.used; ch != nil; ch = ch.next {
		n += len(ch.buf) * k.elem
	}
	return n
}

// TestClonerAllocatesInDestination: a clone's objects come from the
// destination session's heap, so releasing the source leaves the copy
// intact.
func TestClonerAllocatesInDestination(t *testing.T) {
	core.PoisonRecycled(true)
	defer core.PoisonRecycled(false)
	src, dst := &Env{}, &Env{}
	objs := fillHeap(src, 3)
	dup := NewCloner(dst, nil).Value(RefValue(objs[2]))
	src.Release()
	o := dup.R.(*Object)
	if o.Class.Name != "C" || o.Fields[2] != IntValue(3) || o.Fields[0].R.(*Array).Elems[3] != IntValue(6) {
		t.Fatalf("the clone reads %+v after its source was released", o)
	}
	if s, _ := GetStr(o.Fields[1].R); s != "héllo" {
		t.Fatalf("the cloned string reads %q after its source was released", s)
	}
	if dst.heap.objs.used == nil || dst.heap.strs.used == nil || dst.heap.arrs.used == nil {
		t.Error("the clone was not carved from the destination's heap")
	}
}
