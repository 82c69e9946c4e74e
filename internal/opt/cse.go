package opt

import (
	"slices"
	"unsafe"

	"safetsa/internal/core"
)

// memVersion tokens abstract the state of memory. Every block gets a
// memory-in version by forward dataflow: a block whose predecessors
// disagree receives a fresh "memory phi" token — the paper's artificial
// Mem variable with phi nodes at joins, kept purely producer-side ("this
// mechanism is used solely during the optimization phase and is not part
// of the transmitted code").
//
// The token space of one function is dense and the same for every alias
// class: 0 is the initial memory, 1..K name the function's K
// memory-killing instructions in block and code order (CSE never removes
// one, so the numbering holds for the whole run), and K+1+Block.Index is
// the memory phi of a block.
type memVersion int32

const (
	memInit    memVersion = 0
	memUnknown memVersion = -1 // not reached yet; also "no kill" and "no memory dependence"
)

// killsMemory reports whether an instruction invalidates memory-dependent
// expressions (stores and calls; calls conservatively return a new Mem,
// as the paper's non-interprocedural approximation does).
func killsMemory(op core.Op) bool {
	switch op {
	case core.OpSetField, core.OpSetElt, core.OpXCall, core.OpXDispatch:
		return true
	}
	return false
}

// partition identifies an alias class of memory: the single conservative
// Mem ('m'), one field ('f'), or array elements of one type ('a'). Field
// and array-element partitions never alias each other in TJ (no array
// covariance), which is exactly the type/field-based partitioning the
// paper sketches as future work.
type partition struct {
	kind byte
	sym  int32
}

var memAll = partition{kind: 'm'}

// killsPartition reports whether an instruction invalidates a partition;
// calls conservatively kill everything (the paper's non-interprocedural
// approximation).
func killsPartition(in *core.Instr, p partition) bool {
	switch in.Op {
	case core.OpXCall, core.OpXDispatch:
		return true
	case core.OpSetField:
		return p.kind == 'm' || (p.kind == 'f' && in.Field == p.sym)
	case core.OpSetElt:
		return p.kind == 'm' || (p.kind == 'a' && int32(in.TypeArg) == p.sym)
	}
	return false
}

// cseScratch is what one cse run keeps beside the function, all of it
// indexed by ValueID or Block.Index or scoped as a stack (see scratch).
type cseScratch struct {
	// table is the scoped value table; a block marks it at its entry and
	// undoes to the mark on exit.
	table cseTable
	// kills are the memory-killing instructions seen so far in the block
	// being walked, with their tokens; kept stages that block's surviving
	// code until the block is done.
	kills []seenKill
	kept  []*core.Instr
	// killsBefore[i] is the number of killing instructions in blocks
	// before f.Blocks[i].
	killsBefore []memVersion
	// parts are the alias classes the run has met, each with its
	// memory-in versions at mem[off+Block.Index].
	parts []memPart
	mem   []memVersion
	// memInOf's working vectors: memory-out and last kill token per
	// block, and the last kill token before each exception edge's site.
	memOut   []memVersion
	lastKill []memVersion
	siteKill []memVersion
}

// held is the bytes the scratch keeps at capacity.
func (cs *cseScratch) held() int {
	return int(unsafe.Sizeof(cseSlot{}))*cap(cs.table.slots) + 4*cap(cs.table.log) +
		int(unsafe.Sizeof(seenKill{}))*cap(cs.kills) + 8*cap(cs.kept) +
		4*(cap(cs.killsBefore)+cap(cs.mem)+cap(cs.memOut)+cap(cs.lastKill)+cap(cs.siteKill)) +
		int(unsafe.Sizeof(memPart{}))*cap(cs.parts)
}

type seenKill struct {
	in  *core.Instr
	tok memVersion
}

type memPart struct {
	p   partition
	off int
}

// lastKillIn scans code up to (not including) upto, numbering the killing
// instructions from tok, and returns the token of the last one that kills
// p — memUnknown when none does.
func lastKillIn(code []*core.Instr, upto *core.Instr, p partition, tok memVersion) memVersion {
	last := memUnknown
	for _, in := range code {
		if in == upto {
			break
		}
		if killsMemory(in.Op) {
			tok++
			if killsPartition(in, p) {
				last = tok
			}
		}
	}
	return last
}

// memInOf computes the memory-in version of every block for one
// partition by fixpoint, into memIn (one slot per block). Each block's
// code is scanned once, before the rounds: what a round needs of a block
// is the token of its last kill, and of an exception edge the last kill
// before the throwing site.
func (c *cseRun) memInOf(p partition, memIn []memVersion) {
	f, sc := c.f, &c.sc.cse
	n := len(f.Blocks)
	sc.memOut = sized(sc.memOut, n)
	sc.lastKill = sized(sc.lastKill, n)
	sc.siteKill = sc.siteKill[:0]
	memOut, lastKill := sc.memOut, sc.lastKill
	for i, b := range f.Blocks {
		memIn[i], memOut[i] = memUnknown, memUnknown
		lastKill[i] = lastKillIn(b.Code, nil, p, sc.killsBefore[i])
		for _, pr := range b.Preds {
			if pr.Site != nil {
				sc.siteKill = append(sc.siteKill,
					lastKillIn(pr.From.Code, pr.Site, p, sc.killsBefore[pr.From.Index]))
			}
		}
	}
	memIn[f.Entry.Index] = memInit
	phiToken := 1 + c.numKills

	for changed := true; changed; {
		changed = false
		site := 0
		for i, b := range f.Blocks {
			v := memUnknown
			conflict := false
			for _, pr := range b.Preds {
				from := pr.From.Index
				var pv memVersion
				if pr.Site != nil {
					// Exception edge: memory state at the throwing
					// site.
					pv = sc.siteKill[site]
					site++
					if memIn[from] == memUnknown {
						continue
					}
					if pv == memUnknown {
						pv = memIn[from]
					}
				} else {
					pv = memOut[from]
				}
				if pv == memUnknown {
					continue
				}
				if v == memUnknown {
					v = pv
				} else if v != pv {
					conflict = true
				}
			}
			if conflict {
				v = phiToken + memVersion(i)
			}
			if b != f.Entry && v != memUnknown && v != memIn[i] {
				memIn[i] = v
				changed = true
			}
			out := lastKill[i]
			if out == memUnknown {
				out = memIn[i]
			}
			if out != memOut[i] {
				memOut[i] = out
				changed = true
			}
		}
	}
}

// cseKey identifies an expression for value numbering. mem is only
// meaningful for memory-dependent loads.
type cseKey struct {
	op   core.Op
	prim core.PrimOp
	t    core.TypeID
	sym  int32
	a0   core.ValueID
	a1   core.ValueID
	mem  memVersion
}

// cseable builds the value-numbering key of an instruction, or ok=false
// when the instruction must not be merged (calls, stores, allocations,
// and string-producing primitives, whose results have object identity).
func cseable(in *core.Instr, mem memVersion) (cseKey, bool) {
	k := cseKey{op: in.Op, mem: memUnknown}
	arg := func(i int) core.ValueID {
		if i < len(in.Args) {
			return in.Args[i]
		}
		return core.NoValue
	}
	switch in.Op {
	case core.OpPrim, core.OpXPrim:
		switch in.Prim {
		case core.PSConcat, core.PSOfInt, core.PSOfLong, core.PSOfDouble,
			core.PSOfBool, core.PSOfChar, core.PSOfRef:
			return k, false
		}
		k.prim = in.Prim
		k.a0, k.a1 = arg(0), arg(1)
		return k, true
	case core.OpNullCheck:
		k.a0 = arg(0)
		return k, true
	case core.OpIndexCheck:
		k.a0, k.a1 = arg(0), arg(1)
		return k, true
	case core.OpUpcast, core.OpDowncast, core.OpInstanceOf:
		k.t = in.TypeArg
		k.a0 = arg(0)
		return k, true
	case core.OpArrayLen:
		// Array lengths are immutable: no memory dependence.
		k.a0 = arg(0)
		return k, true
	case core.OpGetField:
		k.sym = in.Field
		k.a0 = arg(0)
		k.mem = mem
		return k, true
	case core.OpGetElt:
		k.a0, k.a1 = arg(0), arg(1)
		k.mem = mem
		return k, true
	}
	return k, false
}

// cseRun is one cse call: the function, the variant, and what the walk
// accumulates.
type cseRun struct {
	sc             *scratch
	f              *core.Func
	fieldSensitive bool
	numKills       memVersion
	removed        int
	replaced       bool
}

// cse performs dominator-scoped common subexpression elimination: a
// pre-order walk of the structural dominator tree with a scoped value
// table, so every replacement value dominates its new uses and remains
// expressible as an (l, r) reference. Redundant checks are deleted
// outright — a dominating identical check already performed the runtime
// test — which is exactly the paper's producer-side check elimination.
func cse(sc *scratch, f *core.Func, o Options) int {
	c := cseRun{sc: sc, f: f, fieldSensitive: o.FieldSensitiveMem}
	sc.repl = sized(sc.repl, f.NumValues()+1)
	cs := &sc.cse
	cs.table.reset(f.NumValues())
	cs.parts, cs.mem = cs.parts[:0], cs.mem[:0]
	cs.killsBefore = sized(cs.killsBefore, len(f.Blocks))
	for i, b := range f.Blocks {
		cs.killsBefore[i] = c.numKills
		for _, in := range b.Code {
			if killsMemory(in.Op) {
				c.numKills++
			}
		}
	}
	c.walk(f.Entry)
	if c.replaced {
		// The walk rewrote every code operand as it went (a definition is
		// walked before its uses); phi operands, which a back edge brings
		// from later blocks, and CST references see the replacements now.
		for _, b := range f.Blocks {
			for _, phi := range b.Phis {
				replaceOperands(phi, sc.repl)
			}
		}
		replaceRefs(f.Body, sc.repl)
	}
	return c.removed
}

// partOf names the alias class a load reads.
func (c *cseRun) partOf(in *core.Instr) partition {
	if c.fieldSensitive {
		switch in.Op {
		case core.OpGetField:
			return partition{kind: 'f', sym: in.Field}
		case core.OpGetElt:
			return partition{kind: 'a', sym: int32(in.TypeArg)}
		}
	}
	return memAll
}

// memInFor returns the memory-in versions of partition p, by Block.Index.
// The dataflow is computed on first use, once per alias class the
// function actually loads from, over the code as the walk has left it by
// then; the conservative configuration has the single memAll class.
func (c *cseRun) memInFor(p partition) []memVersion {
	cs := &c.sc.cse
	n := len(c.f.Blocks)
	for _, part := range cs.parts {
		if part.p == p {
			return cs.mem[part.off : part.off+n]
		}
	}
	off := len(cs.mem)
	cs.parts = append(cs.parts, memPart{p: p, off: off})
	cs.mem = slices.Grow(cs.mem, n)[:off+n]
	memIn := cs.mem[off:]
	c.memInOf(p, memIn)
	return memIn
}

// versionAt is the version of partition p after the kills seen so far in
// block b.
func (c *cseRun) versionAt(b *core.Block, p partition) memVersion {
	memIn := c.memInFor(p)
	kills := c.sc.cse.kills
	for i := len(kills) - 1; i >= 0; i-- {
		if killsPartition(kills[i].in, p) {
			return kills[i].tok
		}
	}
	return memIn[b.Index]
}

func (c *cseRun) walk(b *core.Block) {
	f, cs, repl := c.f, &c.sc.cse, c.sc.repl
	mark := cs.table.mark()
	cs.kills = cs.kills[:0]
	tok := cs.killsBefore[b.Index]
	// b.Code stays whole until the block is done — memInOf may still read
	// it — so the survivors are staged and copied back over it.
	kept := cs.kept[:0]
	for _, in := range b.Code {
		replaceOperands(in, repl)
		// A null check of a value that was downcast from a safe-ref
		// plane is statically redundant: the safe source value is
		// the checked result (e.g. `new X()` results are already
		// non-null).
		if in.Op == core.OpNullCheck {
			if d := f.Value(in.Args[0]); d != nil && d.Op == core.OpDowncast {
				if src := f.Value(d.Args[0]); src != nil && src.Type == in.Type {
					repl[in.ID] = d.Args[0]
					c.replaced = true
					f.RemoveExcSite(in)
					c.removed++
					continue
				}
			}
		}
		mem := memUnknown
		if in.Op == core.OpGetField || in.Op == core.OpGetElt {
			mem = c.versionAt(b, c.partOf(in))
		}
		if key, ok := cseable(in, mem); ok {
			if prev, hit := cs.table.get(key); hit {
				if in.HasResult() {
					repl[in.ID] = prev
					c.replaced = true
				}
				if in.Op.CanThrow() {
					f.RemoveExcSite(in)
				}
				c.removed++
				continue // drop the redundant instruction
			}
			if in.HasResult() {
				cs.table.put(key, in.ID)
			}
		}
		if killsMemory(in.Op) {
			tok++
			cs.kills = append(cs.kills, seenKill{in: in, tok: tok})
		}
		kept = append(kept, in)
	}
	b.Code = b.Code[:copy(b.Code, kept)]
	cs.kept = kept
	for _, ch := range b.Children {
		c.walk(ch)
	}
	cs.table.undo(mark)
}
