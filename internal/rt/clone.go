package rt

// This file is the session-cloning substrate under the warm-session
// pools: a deep copy of guest values that preserves everything a guest
// program can observe about its heap — aliasing structure (two statics
// holding the same array must hold the same clone), cycles, and object
// identity (Object.id feeds Identity and RefString, so a clone that
// renumbered objects would print different "Class@id" strings than the
// session it was copied from).
//
// A Cloner allocates its copies in the destination session's heap, so
// they are that session's to release (a snapshot's frozen copy lives in
// an environment nobody releases). It never executes guest code and
// never charges an Env: the
// session the values were copied FROM already paid the allocation
// budget for them, and the warm-pool machinery replays that charge onto
// the destination Env separately (see interp.Snapshot). Keeping the
// copy budget-free is what makes a cloned session bit-identical in
// budget drain to a fresh session that ran the same initialization.

// Cloner deep-copies values between sessions. One Cloner instance spans
// one logical copy operation: values cloned through the same Cloner
// share one identity map, so aliasing between them is preserved exactly.
type Cloner struct {
	// dst is the session the copies are allocated in.
	dst  *Env
	seen map[Ref]Ref
	// classes remaps ClassInfo pointers from the source session's class
	// table to the destination session's (nil entries / nil map fall
	// back to the source pointer). Sessions compare ClassInfos by
	// pointer (IsSubclassOf, checked casts), so a clone that kept source
	// pointers would fail every instanceof in its new session.
	classes map[*ClassInfo]*ClassInfo
	// todo is the copies whose slots are still to be filled. The walk is
	// a loop over it, not a recursion: the shape of the heap is the
	// guest's to choose, and a list of four million nodes hung off a
	// static used to overflow the host stack here.
	todo []slotCopy
}

// slotCopy is one pending fill: dst[i] becomes the clone of src[i].
type slotCopy struct{ src, dst []Value }

// NewCloner creates a cloner that allocates its copies in dst's heap, with
// the given class remapping (may be nil when source and destination share
// one class table).
func NewCloner(dst *Env, classes map[*ClassInfo]*ClassInfo) *Cloner {
	return &Cloner{dst: dst, seen: make(map[Ref]Ref), classes: classes}
}

// Value deep-copies one value.
func (c *Cloner) Value(v Value) Value {
	if v.R == nil {
		return v
	}
	out := Value{I: v.I, R: c.ref(v.R)}
	for len(c.todo) > 0 {
		n := len(c.todo) - 1
		p := c.todo[n]
		c.todo = c.todo[:n]
		for i, e := range p.src {
			if e.R != nil {
				e.R = c.ref(e.R)
			}
			p.dst[i] = e
		}
	}
	return out
}

func (c *Cloner) class(ci *ClassInfo) *ClassInfo {
	if dst, ok := c.classes[ci]; ok && dst != nil {
		return dst
	}
	return ci
}

// ref returns the clone of one reference, making it on first sight with
// its slots queued for filling; recording the mapping before the slots
// are visited is what terminates cycles and collapses aliased references
// onto one clone.
func (c *Cloner) ref(r Ref) Ref {
	if dup, ok := c.seen[r]; ok {
		return dup
	}
	switch r := r.(type) {
	case *Str:
		dup := c.dst.Fresh(r)
		c.seen[r] = dup
		return dup
	case *Array:
		dup := c.dst.array(len(r.Elems), r.TypeID)
		c.seen[r] = dup
		c.todo = append(c.todo, slotCopy{r.Elems, dup.Elems})
		return dup
	case *Object:
		dup := c.dst.object(c.class(r.Class), len(r.Fields), r.id)
		c.seen[r] = dup
		c.todo = append(c.todo, slotCopy{r.Fields, dup.Fields})
		return dup
	}
	return r
}

// NextID reports the environment's object-id allocation cursor, so a
// session snapshot can record it.
func (e *Env) NextID() int64 { return e.nextID }

// SetNextID restores the object-id allocation cursor on a cloned
// session's environment. Without this, the first object a clone
// allocates would reuse an id the copied heap already holds, and
// identity hashes would diverge from a fresh session.
func (e *Env) SetNextID(id int64) { e.nextID = id }
