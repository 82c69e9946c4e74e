package wire

import (
	"safetsa/internal/core"
)

// regEntry is one filled register: the value, the block that holds it
// (by Index) and its intra-block position (phis share position 0; code
// instructions are 1-based).
type regEntry struct {
	id       core.ValueID
	blk, pos int32
}

// regFile models the paper's implied machine: for every basic block, one
// register plane per type (plus the per-array-value safe-index planes),
// filled in ascending order. Both the encoder and the decoder fill it
// incrementally while walking the blocks in transmission order, so the
// alphabet of every (l, r) reference — and therefore the set of
// expressible operands — is identical on both sides.
//
// Storage is flat: per plane, one function-wide vector in fill order.
// Blocks are filled one at a time, in dominator pre-order — ascending
// Block.Index — so a block's registers on a plane are one contiguous
// window of that vector, and the vector ascends in (blk, pos); every
// lookup is a binary search. One regFile serves all the functions of a
// unit: reset truncates and never frees.
type regFile struct {
	// index finds a plane's vector in O(1). It has to be a map: every
	// indexcheck mints its own safe-index plane, so a hostile body has as
	// many planes as it has instructions.
	index  map[core.PlaneKey]int32
	planes [][]regEntry
}

// maxKeptPlanes bounds what reset clears in place: clearing a map costs
// its capacity, and one hostile function must not tax every later one.
const maxKeptPlanes = 1 << 10

// reset empties the file for the next function.
func (rf *regFile) reset() {
	if rf.index == nil || len(rf.index) > maxKeptPlanes {
		rf.index = make(map[core.PlaneKey]int32)
	} else {
		clear(rf.index)
	}
	rf.planes = rf.planes[:0]
}

// add fills the next register of the instruction's plane.
func (rf *regFile) add(b *core.Block, in *core.Instr, pos int) {
	if !in.HasResult() {
		return
	}
	k := in.Plane()
	i, ok := rf.index[k]
	if !ok {
		i = int32(len(rf.planes))
		rf.index[k] = i
		if int(i) < cap(rf.planes) {
			rf.planes = rf.planes[:i+1]
			rf.planes[i] = rf.planes[i][:0]
		} else {
			rf.planes = append(rf.planes, nil)
		}
	}
	e := regEntry{id: in.ID, blk: int32(b.Index), pos: int32(pos)}
	if rs := rf.planes[i]; len(rs) > 0 && e.before(rs[len(rs)-1].blk, rs[len(rs)-1].pos) {
		panic("wire: register file filled out of order")
	}
	rf.planes[i] = append(rf.planes[i], e)
}

// before orders registers by (block, position).
func (e regEntry) before(blk, pos int32) bool {
	return e.blk < blk || e.blk == blk && e.pos < pos
}

// lowerBound counts the registers of rs before (blk, pos).
func lowerBound(rs []regEntry, blk, pos int32) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].before(blk, pos) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// window returns the registers of the plane in b before the given
// position (use limit < 0 for "all"): the alphabet of an r.
func (rf *regFile) window(b *core.Block, plane core.PlaneKey, limit int) []regEntry {
	i, ok := rf.index[plane]
	if !ok {
		return nil
	}
	// A plane in the index holds at least one register. The two usual
	// cases need no search: b is the first block that filled the plane,
	// or the last one so far.
	rs, blk := rf.planes[i], int32(b.Index)
	if rs[0].blk != blk {
		rs = rs[lowerBound(rs, blk, 0):]
	}
	if limit >= 0 {
		return rs[:lowerBound(rs, blk, int32(limit))]
	}
	if n := len(rs); n > 0 && rs[n-1].blk == blk {
		return rs
	}
	return rs[:lowerBound(rs, blk+1, 0)]
}

// indexOf finds the register number within a window of the value
// defined at position pos; -1 when the window does not hold it.
func indexOf(w []regEntry, id core.ValueID, pos int) int {
	if len(w) == 0 {
		return -1
	}
	for i := lowerBound(w, w[0].blk, int32(pos)); i < len(w) && int(w[i].pos) == pos; i++ {
		if w[i].id == id {
			return i
		}
	}
	return -1
}
