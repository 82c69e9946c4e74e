package opt

import "safetsa/internal/core"

// cseTable is cse's scoped value table: open addressing with linear
// probing over a power-of-two slot vector. A key is put only after its
// get has just missed, so a key holds at most one value, and every put
// defines a value of the function: sized for f.NumValues() puts at half
// load, the table never fills and a probe always ends at an empty slot.
//
// Leaving a scope undoes the puts made inside it, newest first. Clearing
// the slot of the newest live entry restores the table exactly as it was
// before that put: every entry put later has been undone already, so no
// probe sequence still present ever stepped over the slot. The walk's
// outermost scope undoes every put, so the table is empty between runs
// and a new function reuses it without clearing.
type cseTable struct {
	slots []cseSlot
	mask  uint32
	// log holds the slot of every live put, oldest first.
	log []uint32
}

// cseSlot is one table entry; val is NoValue in an empty slot (a put
// always stores a defined value).
type cseSlot struct {
	key cseKey
	val core.ValueID
}

// reset makes t an empty table with room for puts puts at half load,
// reusing the slot vector when it is long enough (it is empty, see above).
func (t *cseTable) reset(puts int) {
	n := 16
	for n < 2*puts {
		n *= 2
	}
	if cap(t.slots) < n {
		t.slots = make([]cseSlot, n)
	}
	t.slots = t.slots[:n]
	t.mask = uint32(n - 1)
	t.log = t.log[:0]
}

// hash mixes every field of the key; the fold keeps the high bits, which
// the multiplications stir best.
func (k *cseKey) hash() uint32 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(k.op)<<40 ^ uint64(k.prim)<<32 ^ uint64(uint32(k.t))
	h = h*m ^ uint64(uint32(k.sym))<<32 ^ uint64(uint32(k.a0))
	h = h*m ^ uint64(uint32(k.a1))<<32 ^ uint64(uint32(k.mem))
	h *= m
	return uint32(h>>32) ^ uint32(h)
}

// get returns the value k was put with, if it is live.
func (t *cseTable) get(k cseKey) (core.ValueID, bool) {
	for i := k.hash() & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val == core.NoValue {
			return core.NoValue, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// put enters k, which must not be live, with value v (not NoValue).
func (t *cseTable) put(k cseKey, v core.ValueID) {
	if 2*(len(t.log)+1) > len(t.slots) {
		t.grow() // more puts than reset was told of: not on a well-formed function
	}
	i := k.hash() & t.mask
	for t.slots[i].val != core.NoValue {
		i = (i + 1) & t.mask
	}
	t.slots[i] = cseSlot{key: k, val: v}
	t.log = append(t.log, i)
}

// grow doubles the slot vector and puts the live entries again, oldest
// first, so that undo stays exact.
func (t *cseTable) grow() {
	old, log := t.slots, t.log
	t.slots = make([]cseSlot, 2*len(old))
	t.mask = uint32(len(t.slots) - 1)
	t.log = t.log[:0]
	for _, i := range log { // put rewrites the entry it has just read
		t.put(old[i].key, old[i].val)
	}
}

// mark is the point a scope opens at; undo(mark) closes it.
func (t *cseTable) mark() int { return len(t.log) }

// undo removes the puts made since mark, newest first.
func (t *cseTable) undo(mark int) {
	for j := len(t.log) - 1; j >= mark; j-- {
		t.slots[t.log[j]] = cseSlot{}
	}
	t.log = t.log[:mark]
}
