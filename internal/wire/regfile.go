package wire

import (
	"unsafe"

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
// window of that vector, and the vector ascends in (blk, pos): a window
// in the last block to fill the plane starts where that block began,
// and any other is found by binary search. A plane is found by index: a
// dense table over TypeID for the planes of a type, and a map only for
// the safe-index planes, which are bound to an array value. One regFile
// serves all the functions of a unit — and, in a recycled arena or
// encoder, of every unit after it: reset truncates and never frees.
type regFile struct {
	// byType holds, for each type whose plane the function has filled,
	// the plane's number + 1 (0: none yet). It is sized to the module's
	// type table, whose every entry the decoder has already decoded.
	byType []int32
	// bound finds a safe-index plane. It has to be a map: every
	// indexcheck mints its own, so a hostile body has as many as it has
	// instructions. It is made when the first one is filled.
	bound  map[core.PlaneKey]int32
	planes []plane
	// pos is where each register's value is defined in its block, by
	// ValueID: the position table both ends place values in as they
	// fill the file, which the decoder's admission rules read.
	pos core.Positions
}

// plane is one register plane's vector, with the key that finds it and
// where the last block to fill it begins in it.
type plane struct {
	key  core.PlaneKey
	regs []regEntry
	last int
}

// maxKeptPlanes bounds what reset clears in place: clearing a map costs
// its capacity, and one hostile function must not tax every later one.
const maxKeptPlanes = 1 << 10

// reset empties the file for the next function of a module whose type
// table has types entries, with room to place values of them (0: as
// many as are filled).
func (rf *regFile) reset(types, values int) {
	for _, p := range rf.planes {
		if p.key.Bind == core.NoValue {
			rf.byType[p.key.Type] = 0
		}
	}
	rf.planes = rf.planes[:0]
	rf.pos.Reset(values)
	if len(rf.byType) < types {
		rf.byType = make([]int32, types)
	}
	if len(rf.bound) > maxKeptPlanes {
		rf.bound = nil
	} else {
		clear(rf.bound)
	}
}

// find returns the number of the plane k, or -1 while it holds no
// register.
func (rf *regFile) find(k core.PlaneKey) int {
	if k.Bind == core.NoValue {
		return int(rf.byType[k.Type]) - 1
	}
	if i, ok := rf.bound[k]; ok {
		return int(i)
	}
	return -1
}

// add fills the next register of the instruction's plane.
func (rf *regFile) add(b *core.Block, in *core.Instr, pos int) {
	if !in.HasResult() {
		return
	}
	rf.pos.Place(in.ID, pos)
	k := in.Plane()
	i := rf.find(k)
	if i < 0 {
		i = len(rf.planes)
		if k.Bind == core.NoValue {
			rf.byType[k.Type] = int32(i + 1)
		} else {
			if rf.bound == nil {
				rf.bound = make(map[core.PlaneKey]int32)
			}
			rf.bound[k] = int32(i)
		}
		if i < cap(rf.planes) {
			rf.planes = rf.planes[:i+1]
			rf.planes[i].regs = rf.planes[i].regs[:0]
		} else {
			rf.planes = append(rf.planes, plane{})
		}
		rf.planes[i].key = k
	}
	p := &rf.planes[i]
	e := regEntry{id: in.ID, blk: int32(b.Index), pos: int32(pos)}
	n := len(p.regs)
	if n > 0 && e.before(p.regs[n-1].blk, p.regs[n-1].pos) {
		panic("wire: register file filled out of order")
	}
	if n == 0 || p.regs[n-1].blk != e.blk {
		p.last = n
	}
	p.regs = append(p.regs, e)
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
	i := rf.find(plane)
	if i < 0 {
		return nil
	}
	// A plane that is found holds at least one register. The two usual
	// cases need no search: b is the last block that filled the plane so
	// far, or the first.
	p := &rf.planes[i]
	rs, blk := p.regs, int32(b.Index)
	if rs[len(rs)-1].blk == blk {
		rs = rs[p.last:]
	} else if rs[0].blk != blk {
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

// bytes is what the file keeps between functions and units.
func (rf *regFile) bytes() int {
	n := 4*(cap(rf.byType)+rf.pos.Cap()) + int(unsafe.Sizeof(core.PlaneKey{})+4)*len(rf.bound) +
		int(unsafe.Sizeof(plane{}))*cap(rf.planes)
	for _, p := range rf.planes[:cap(rf.planes)] {
		n += int(unsafe.Sizeof(regEntry{})) * cap(p.regs)
	}
	return n
}
