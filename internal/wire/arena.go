package wire

import (
	"unsafe"

	"safetsa/internal/core"
)

// Arena is the memory a cursor decodes function bodies into (DESIGN.md §5,
// "who owns decoded memory"): everything a body is made of is carved from
// its slabs, so a unit costs a chunk per ~128 nodes, not an allocation per
// node. A cursor's memory becomes the unit's: an arena of its own, or one
// it is lent (OpenVerified, DecodeVerifiedStreamIn), which the lender takes
// back whole once nothing reads the unit (Rewind) and lends to the next
// unit, whose bodies are decoded into the same chunks, the same scratch and
// the same register file. The zero Arena is ready to use; an arena serves
// one cursor at a time.
type Arena struct {
	instrs   core.Slab[core.Instr]
	nodes    core.Slab[core.CSTNode]
	blocks   core.Slab[core.Block]
	args     core.Slab[core.ValueID]  // Instr.Args
	instrVec core.Slab[*core.Instr]   // Block.Phis, Block.Code, a kept Func's value table
	nodeVec  core.Slab[*core.CSTNode] // CSTNode.Kids
	blockVec core.Slab[*core.Block]   // Func.Blocks
	preds    core.Slab[core.Pred]     // Block.Preds, normal edges
	funcs    core.Slab[core.Func]     // a retaining cursor's bodies
	types    core.Slab[core.TypeID]   // a MethodRef's Params

	// The head's tables, kept at their exact lengths as the bodies are.
	fields   core.Slab[core.FieldRef]
	methods  core.Slab[core.MethodRef]
	classes  core.Slab[core.ClassDef]
	classVec core.Slab[*core.ClassDef]
	indices  core.Slab[int32] // a ClassDef's Fields, Methods and VTable; Module.StaticInit

	// Per-function state, reused from one function to the next; nothing
	// here is reachable from the module.
	f     *core.Func
	rf    regFile
	kids  []*core.CSTNode // children collected so far, innermost node last
	blks  []*core.Block   // the function's blocks, in creation order
	code  []*core.Instr   // the block section being collected
	loops []loopShape     // linkShape's stack of open loops
	// lims is the limit of each exception edge of the phase-2 walk,
	// which windows the edge's phi operands.
	lims edgeLimits
	// vals is where a kept Func's value table is built before it is kept
	// at its exact length.
	vals []*core.Instr
	// Where the head's tables are built before they are kept.
	paramBuf  []core.TypeID
	fieldBuf  []core.FieldRef
	methodBuf []core.MethodRef
	classBuf  []*core.ClassDef
	indexBuf  []int32

	// A v2 unit's adaptive model, and a stream's read buffer.
	mdl *model
	buf *[4096]byte
}

// Rewind takes back everything a cursor lent a (OpenVerified,
// DecodeVerifiedStreamIn) decoded into it, so the next cursor decodes into
// the same chunks, the same scratch and the same register file, and
// reports the bytes a keeps. While core.Poisoning its slabs overwrite what
// they handed out with junk and forget it instead; the scratch is reused
// either way. A map that grew past maxKeptPlanes entries is let go of, to
// be made again when asked: clearing one costs its capacity. The caller
// vouches that nothing reads the unit's bodies any more, nor pulls through
// its cursor: no lowered form holds a pointer into a body (DESIGN.md §11),
// so once the last session on the unit has ended nothing does, and under
// core.PoisonRecycled that is checked instead of trusted.
func (a *Arena) Rewind() int {
	n := a.instrs.Rewind() + a.nodes.Rewind() + a.blocks.Rewind() + a.args.Rewind() +
		a.instrVec.Rewind() + a.nodeVec.Rewind() + a.blockVec.Rewind() + a.preds.Rewind() +
		a.funcs.Rewind() + a.types.Rewind() + a.fields.Rewind() + a.methods.Rewind() +
		a.classes.Rewind() + a.classVec.Rewind() + a.indices.Rewind()
	if len(a.rf.bound) > maxKeptPlanes {
		a.rf.bound = nil
	}
	if a.buf != nil {
		n += len(a.buf)
	}
	if a.mdl != nil {
		n += int(unsafe.Sizeof(*a.mdl))
	}
	n += 8*(cap(a.kids)+cap(a.blks)+cap(a.code)+cap(a.vals)) +
		int(unsafe.Sizeof(loopShape{}))*cap(a.loops) + 4*cap(a.paramBuf) +
		a.lims.bytes() + a.rf.bytes() +
		int(unsafe.Sizeof(core.FieldRef{}))*cap(a.fieldBuf) +
		int(unsafe.Sizeof(core.MethodRef{}))*cap(a.methodBuf) + 8*cap(a.classBuf) + 4*cap(a.indexBuf)
	return n
}

// recycle makes the slabs keep their chunks, for Rewind.
func (a *Arena) recycle() {
	a.instrs.Recycle()
	a.nodes.Recycle()
	a.blocks.Recycle()
	a.args.Recycle()
	a.instrVec.Recycle()
	a.nodeVec.Recycle()
	a.blockVec.Recycle()
	a.preds.Recycle()
	a.funcs.Recycle()
	a.types.Recycle()
	a.fields.Recycle()
	a.methods.Recycle()
	a.classes.Recycle()
	a.classVec.Recycle()
	a.indices.Recycle()
}

// dropScratch lets go of the per-function state once a cursor with an
// arena of its own has admitted its last body: the cursor of a resident
// unit lives as long as the unit does and would pin it. A lent arena keeps
// it for the next cursor it is lent to.
func (a *Arena) dropScratch() {
	a.f, a.rf, a.lims = nil, regFile{}, edgeLimits{}
	a.kids, a.blks, a.code, a.loops = nil, nil, nil, nil
	a.vals = nil
	a.paramBuf, a.fieldBuf, a.methodBuf, a.classBuf, a.indexBuf = nil, nil, nil, nil, nil
}
