package interp

import (
	"fmt"
	"unsafe"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the load-time half of the prepared execution engine: a
// one-shot compilation of a decoded, verified module into a dense
// register-machine form. The paper observes that SafeTSA's
// dominator-relative (l, r) operand pairs can be mapped onto a flat
// virtual-register file while decoding, so the consumer never pays
// tree-walking cost at execution time; our wire decoder already resolves
// (l, r) pairs to function-wide SSA ValueIDs, and Prepare finishes the
// job by flattening the Control Structure Tree into straight-line code
// with explicit jumps, resolving every phi into edge-specific register
// moves (sequenced, so one at a time has the phis' parallel meaning), and
// precomputing every exception edge into a (target pc, moves) pair.
//
// Slot-assignment invariant: the register of SSA value v is exactly
// int32(v). The reference evaluator's frame stores value v at
// vals[v] (a slice of NumValues()+1), so the prepared register file is
// the same array layout — slot 0 doubles as a scratch register that
// absorbs the results of void instructions, which lets the evaluator
// write regs[in.Dst] unconditionally instead of branching on "has
// result".
//
// Prepare runs strictly after the verifier on an immutable module and
// performs no re-verification; it does, however, bounds-check every
// table index it embeds into the prepared form (operands, phi inputs,
// fields, methods, types), returning an error — never panicking — on a
// reference that only a corrupted or hand-built module could contain.
// That makes it the single gate for both consumers of the form:
// runPrepared and Compile take the indices of a form minted here (see
// bound) as they stand.

// POp is a prepared-form opcode. Ordering is semantic: every opcode
// below pCtrl consumes one step of rt.Env budget when executed (they
// correspond 1:1 to reference-evaluator straight-line instructions,
// plus the per-iteration loop charge), while opcodes above pCtrl are
// pure control/data-movement pseudo-instructions that the reference
// evaluator performs for free during its CST walk.
type POp uint8

const (
	// Stepping opcodes (one rt.Env.Step each).
	PConst POp = iota
	PConstStr
	PParam
	PCopy
	PPrim
	PXPrim
	PNullCheck
	PIndexCheck
	PUpcast
	PInstanceOf
	PGetField
	PSetField
	PGetStatic
	PSetStatic
	PGetElt
	PSetElt
	PArrayLen
	PNew
	PNewArray
	PCall
	PDispatch
	PCatch
	PLoopStep

	pCtrl // sentinel: opcodes past this point do not step

	PJump
	PBranchFalse
	PMoves
	PReturn
	PReturnVal
	PThrow
)

var pOpNames = [...]string{
	PConst: "const", PConstStr: "conststr", PParam: "param", PCopy: "copy",
	PPrim: "prim", PXPrim: "xprim", PNullCheck: "nullcheck",
	PIndexCheck: "indexcheck", PUpcast: "upcast", PInstanceOf: "instanceof",
	PGetField: "getfield", PSetField: "setfield", PGetStatic: "getstatic",
	PSetStatic: "setstatic", PGetElt: "getelt", PSetElt: "setelt",
	PArrayLen: "arraylen", PNew: "new", PNewArray: "newarray",
	PCall: "call", PDispatch: "dispatch", PCatch: "catch",
	PLoopStep: "loopstep", pCtrl: "ctrl",
	PJump: "jump", PBranchFalse: "branchfalse", PMoves: "moves",
	PReturn: "return", PReturnVal: "returnval", PThrow: "throw",
}

func (op POp) String() string {
	if int(op) < len(pOpNames) && pOpNames[op] != "" {
		return pOpNames[op]
	}
	return fmt.Sprintf("pop(%d)", uint8(op))
}

// Move is one register copy of an edge's sequenced phi-move list.
type Move struct{ Dst, Src int32 }

// RaiseSite is the precomputed exception edge of a potentially-throwing
// prepared instruction: on a raise, Moves (the handler block's phi
// inputs for this edge) are applied in order and control transfers to
// Target. A nil *RaiseSite means the exception leaves the function,
// which returns it (noHandler on the prepared evaluator, cThrow on the
// compiled engine).
type RaiseSite struct {
	Target int32
	Moves  []Move
}

// PreparedInst is one prepared instruction. Field use by opcode:
//
//	PConst       Dst ← Val
//	PConstStr    Dst ← fresh *rt.Str of Str (fresh per execution, so
//	             reference identity matches the reference evaluator)
//	PParam       Dst ← args[A]
//	PCopy        Dst ← reg A (OpDowncast: a stepped plane move)
//	PPrim        Dst ← Prim(reg A, reg B)
//	PXPrim       like PPrim but Prim ∈ {idiv,irem,ldiv,lrem}; zero
//	             divisor raises ArithmeticException via Raise
//	PNullCheck   Dst ← reg A after null test (Raise: NPE)
//	PIndexCheck  Dst ← reg B after bounds test against array reg A
//	PUpcast      Dst ← reg A after checked cast to Type (Raise: CCE)
//	PInstanceOf  Dst ← reg A instanceof Type
//	PGetField    Dst ← (reg A).fields[B]
//	PSetField    (reg A).fields[B] ← reg C
//	PGetStatic   Dst ← statics(Type)[B]
//	PSetStatic   statics(Type)[B] ← reg A
//	PGetElt      Dst ← (reg A)[reg B]
//	PSetElt      (reg A)[reg B] ← reg C
//	PArrayLen    Dst ← len(reg A)
//	PNew         Dst ← new instance of Type
//	PNewArray    Dst ← new array of Type, length reg A (Raise: NegSize)
//	PCall        Dst ← call method A (func index B, or native when B<0)
//	             with Args; Raise catches an exception the callee
//	             let out
//	PDispatch    like PCall but through the dispatch-table slot of
//	             method A
//	PCatch       Dst ← current caught exception
//	PLoopStep    charge one step (loop-iteration budget)
//	PJump        apply Moves, pc ← Target
//	PBranchFalse if reg A is false: apply Moves, pc ← Target
//	PMoves       apply Moves (phi entry on a fallthrough edge)
//	PReturn      return void
//	PReturnVal   return reg A
//	PThrow       raise reg A via Raise (null raises NPE on the same
//	             edge); nil Raise leaves the function
type PreparedInst struct {
	Op      POp
	Prim    core.PrimOp
	Dst     int32
	A, B, C int32
	Type    core.TypeID
	Target  int32
	Val     rt.Value
	Str     string
	Args    []int32
	Moves   []Move
	Raise   *RaiseSite
}

// PFunc is one prepared function body.
type PFunc struct {
	// NumRegs is NumValues()+1: slot v holds SSA value v, slot 0 is
	// the void-result scratch register.
	NumRegs int32
	// Frame is what one activation holds of rt.MaxStackSlots.
	Frame int64
	Code  []PreparedInst
}

// Prepared is the register-machine form of a module. Like the module it
// was prepared from it is immutable after Prepare returns and may be
// shared by any number of concurrent execution sessions.
type Prepared struct {
	Funcs []*PFunc // parallel to Module.Funcs
	// mod is the module Prepare minted this form from (see bound).
	mod *core.Module
}

// from is the module p was minted from; nil for a nil or hand-built form.
func (p *Prepared) from() *core.Module {
	if p == nil {
		return nil
	}
	return p.mod
}

// bound is the one check that ties a lowered form to a module. Prepare
// and Compile record the *core.Module they lower in an unexported field,
// so minted is non-nil only for a form they built; identity with mod is
// what the engines rely on when they index mod's tables with the form's
// baked-in ids, and two modules that merely look alike (same function
// count, even the same source) do not have it.
func bound(mod *core.Module, form string, minted *core.Module) error {
	if minted == nil || minted != mod {
		return fmt.Errorf("interp: %s form does not match module", form)
	}
	return nil
}

// Prepare compiles a verified module into its prepared form. It never
// executes guest code and never panics: a module whose references do
// not resolve (unreachable after the verifier, but reachable from
// hand-built or corrupted modules) yields an error.
func Prepare(mod *core.Module) (*Prepared, error) {
	p := &Prepared{mod: mod, Funcs: make([]*PFunc, len(mod.Funcs))}
	c := newFcomp(mod, len(mod.Funcs))
	for i, f := range mod.Funcs {
		pf, err := c.prepareFunc(f)
		if err != nil {
			return nil, fmt.Errorf("interp: prepare %s: %w", mod.FuncName(f), err)
		}
		p.Funcs[i] = pf
	}
	return p, nil
}

// ---------------------------------------------------------------------
// The flattening compiler.

// pendingJump is a forward reference: an emitted PJump/PBranchFalse
// whose Target (and entry Moves, which depend on the destination
// block's phis) are patched when the destination is reached. src is the
// most recently executed basic block on that path — the static image of
// the reference evaluator's fr.prev — which selects the phi edge.
type pendingJump struct {
	at  int32
	src *core.Block
}

// flow describes how control reaches the next emitted instruction:
// an optional open fallthrough path (with its own src block) plus any
// number of pending jumps converging here. moved marks a fallthrough
// whose destination-block phi moves were already applied (loop headers
// and handler entries, whose entry moves are emitted at the transfer
// sources).
type flow struct {
	open  bool
	src   *core.Block
	moved bool
	jumps []pendingJump
}

func (fl *flow) dead() bool { return !fl.open && len(fl.jumps) == 0 }

// loopCtx collects the exits of the innermost loop being compiled.
type loopCtx struct {
	breaks    []pendingJump
	continues []pendingJump
}

// fcomp lowers the functions of one module, one after the other. What a
// lowered function keeps is allocated once per function at its exact
// size: code is emitted into a buffer the next function reuses and
// copied out when its length is known, and operand and move vectors are
// carved from two per-function arenas counted up front.
type fcomp struct {
	mod *core.Module
	// nFuncs bounds the function indices a call may name: the length of
	// the module's function list, or of the form's slots.
	nFuncs int
	f      *core.Func
	code   []PreparedInst
	fl     flow
	loop   []loopCtx

	args  []int32 // arena of PCall/PDispatch operand vectors
	moves []Move  // arena of phi-move sets

	// Every phi edge of the function is sequenced once, before its body
	// is walked, into seq: edge k into f.Blocks[i] is seq[edgeAt[e]:
	// edgeAt[e+1]] for e = first[i]+k. par holds one edge's parallel set
	// while it is sequenced. moveBuf backs par and seq, and ints backs
	// first, edgeAt and sequence's per-register counts: scratch the next
	// function reuses.
	first, edgeAt []int32
	par, seq      []Move
	moveBuf       []Move
	ints          []int32

	// raiseFix defers exception-edge resolution until every handler's
	// pc is known (handlers compile after their protected bodies, and
	// outer handlers after inner ones).
	raiseFix []raiseFixup
	handlers map[*core.Block]int32
	// tries is the try context of the walk: the handler of each try whose
	// body is being lowered, innermost last, with the edge the next
	// exception site takes (core.Func.ExcSites).
	tries []raiseFixup

	// A body flattened only to be encoded (lowerFunc) carves its operand
	// vectors, move sets and raise sites from these, which the next
	// function reuses; side collects its records' side arrays before
	// compileFunc keeps them.
	argBuf  []int32
	moveArr []Move
	siteBuf []RaiseSite
	side    side

	// jbuf is the room pending-jump lists grow into (jappend), up to jtop.
	jbuf []pendingJump
	jtop int
}

// newFcomp sizes the reused buffers for the largest function the module
// holds so far; flatten grows them for a larger one that arrives later.
// It returns the lowerer by value, so a caller's stays on its stack.
func newFcomp(mod *core.Module, nFuncs int) fcomp {
	c := fcomp{mod: mod, nFuncs: nFuncs, handlers: make(map[*core.Block]int32)}
	c.grow(moduleRoom(mod))
	return c
}

// Rewind forgets the module and the body last lowered — the body is its
// unit's, whose memory is recycled with it — with every block, value,
// string and raise site the reused buffers still name, and reports the
// bytes the buffers keep.
func (c *fcomp) Rewind() int {
	clear(c.code)
	clear(c.raiseFix)
	clear(c.tries[:cap(c.tries)])
	clear(c.loop[:cap(c.loop)])
	clear(c.handlers)
	clear(c.side.strs)
	clear(c.jbuf[:c.jtop])
	c.mod, c.f, c.fl, c.jtop = nil, nil, flow{}, 0
	c.code, c.raiseFix, c.loop, c.side.strs = c.code[:0], c.raiseFix[:0], c.loop[:0], c.side.strs[:0]
	return int(unsafe.Sizeof(PreparedInst{}))*cap(c.code) + 8*len(c.moveBuf) + 4*len(c.ints) +
		int(unsafe.Sizeof(raiseFixup{}))*(cap(c.raiseFix)+cap(c.tries)) + int(unsafe.Sizeof(loopCtx{}))*cap(c.loop) +
		4*(cap(c.argBuf)+cap(c.side.args)) + 8*(cap(c.moveArr)+cap(c.side.moves)) +
		int(unsafe.Sizeof(RaiseSite{}))*cap(c.siteBuf) + int(unsafe.Sizeof(csite{}))*cap(c.side.sites) +
		int(unsafe.Sizeof(rt.Str{}))*cap(c.side.strs) + int(unsafe.Sizeof(pendingJump{}))*len(c.jbuf)
}

// room is what lowering a function needs of fcomp's reused buffers.
type room struct{ code, par, seq, ints int }

// moduleRoom is the most any function of mod needs of each buffer.
func moduleRoom(mod *core.Module) room {
	var r room
	for _, f := range mod.Funcs {
		fr := roomOf(f)
		r = room{max(r.code, fr.code), max(r.par, fr.par), max(r.seq, fr.seq), max(r.ints, fr.ints)}
	}
	return r
}

// roomOf bounds what lowering f needs. Code: one prepared instruction per
// instruction, and per block at most its entry moves plus what the
// construct it opens (branch, loop step, back jump) and the terminator
// that ends it emit. Phi edges, if f has any: its widest parallel set;
// every edge sequenced, at most one move more per two (a cycle is at
// least a swap); and the edge table beside two counts per register.
func roomOf(f *core.Func) room {
	r, edges := room{code: 1}, 0
	for _, b := range f.Blocks {
		r.code += len(b.Code) + 5
		if len(b.Phis) > 0 {
			r.par = max(r.par, len(b.Phis))
			r.seq += len(b.Preds) * (len(b.Phis) + len(b.Phis)/2)
			edges += len(b.Preds)
		}
	}
	if edges > 0 {
		r.ints = 2*(f.NumValues()+1) + len(f.Blocks) + edges + 1
	}
	return r
}

// grow makes each reused buffer at least as large as r asks.
func (c *fcomp) grow(r room) {
	if r.code > cap(c.code) {
		c.code = make([]PreparedInst, 0, r.code)
	}
	if r.par+r.seq > len(c.moveBuf) {
		c.moveBuf = make([]Move, r.par+r.seq)
	}
	if r.ints > len(c.ints) {
		c.ints = make([]int32, r.ints)
	}
}

// scratch is n elements of *buf, which grows to hold them: memory the
// next function reuses.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// carve cuts the next n elements off an arena; a function that needs
// more than was counted for it — no verified one does — gets them fresh.
func carve[T any](arena *[]T, n int) []T {
	if n > len(*arena) {
		return make([]T, n)
	}
	v := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return v
}

type raiseFixup struct {
	at      int // instruction index whose Raise to fill
	handler *core.Block
	edge    int
}

// prepareFunc is the prepared form of f, in memory of its own.
func (c *fcomp) prepareFunc(f *core.Func) (*PFunc, error) {
	pf, err := c.flatten(f, true)
	if err != nil {
		return nil, err
	}
	pf.Code = append(make([]PreparedInst, 0, len(pf.Code)), pf.Code...)
	return &pf, nil
}

// flatten lowers f into the emission buffer and returns its prepared form
// with Code still standing there, good until the next function is
// flattened — which is as long as compileFunc needs it, since a record
// keeps copies of the operands it uses, never the instruction. Unless
// keep is set, the operand vectors, move sets and raise sites the form
// names stand in the lowerer's scratch too.
func (c *fcomp) flatten(f *core.Func, keep bool) (PFunc, error) {
	r := roomOf(f)
	c.grow(r)
	c.f, c.fl, c.code, c.raiseFix, c.tries = f, flow{open: true}, c.code[:0], c.raiseFix[:0], c.tries[:0]
	clear(c.jbuf[:c.jtop])
	c.jtop = 0
	c.par, c.seq = c.moveBuf[:0:r.par], c.moveBuf[r.par:r.par]
	clear(c.handlers)
	// Every edge into a block applies that block's phis once, as the
	// sequenced list sequenceEdges makes for it, and only calls keep their
	// operand vector.
	if r.ints > 0 { // f has phis
		if err := c.sequenceEdges(f); err != nil {
			return PFunc{}, err
		}
	}
	nArgs := 0
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Op == core.OpXCall || in.Op == core.OpXDispatch {
				nArgs += len(in.Args)
			}
		}
	}
	if keep {
		c.args, c.moves = make([]int32, nArgs), make([]Move, len(c.seq))
	} else {
		c.args, c.moves = scratch(&c.argBuf, nArgs), scratch(&c.moveArr, len(c.seq))
	}

	if err := c.node(f.Body); err != nil {
		return PFunc{}, err
	}
	// Fall off the end of the body: a void return. Remaining pending
	// jumps (e.g. a try body exiting past its handler at the end of the
	// function) land here too.
	c.patchTo(int32(len(c.code)), nil)
	c.emit(PreparedInst{Op: PReturn})
	var sites []RaiseSite
	if keep {
		sites = make([]RaiseSite, len(c.raiseFix))
	} else {
		sites = scratch(&c.siteBuf, len(c.raiseFix))
	}
	for i, fix := range c.raiseFix {
		target, ok := c.handlers[fix.handler]
		if !ok {
			return PFunc{}, fmt.Errorf("exception edge into uncompiled handler block %d", fix.handler.Index)
		}
		mv, err := c.edgeMoves(fix.handler, fix.edge)
		if err != nil {
			return PFunc{}, err
		}
		sites[i] = RaiseSite{Target: target, Moves: mv}
		c.code[fix.at].Raise = &sites[i]
	}
	return PFunc{NumRegs: int32(f.NumValues() + 1), Frame: rt.FrameSlots(f.NumValues() + 1), Code: c.code}, nil
}

// jappend is append for pending-jump lists: a list that must grow moves
// to room twice its size carved from jbuf, so the lists of a body cost
// the lowerer nothing once jbuf is as large as they need. Room a body
// outgrew stays with the lists that still name it until the next body
// starts over in the larger room.
func (c *fcomp) jappend(list []pendingJump, more ...pendingJump) []pendingJump {
	if need := len(list) + len(more); need > cap(list) {
		n := max(2*cap(list), need, 4)
		if c.jtop+n > len(c.jbuf) {
			c.jbuf, c.jtop = make([]pendingJump, max(2*len(c.jbuf), n, 64)), 0
		}
		grown := c.jbuf[c.jtop : c.jtop : c.jtop+n]
		c.jtop += n
		list = append(grown, list...)
	}
	return append(list, more...)
}

func (c *fcomp) emit(in PreparedInst) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

func (c *fcomp) pc() int32 { return int32(len(c.code)) }

// reg validates an operand ValueID and returns its register.
func (c *fcomp) reg(id core.ValueID) (int32, error) {
	if id < 0 || int(id) > c.f.NumValues() {
		return 0, fmt.Errorf("value v%d out of range (function defines %d values)",
			id, c.f.NumValues())
	}
	return int32(id), nil
}

// dst returns the result register of an instruction: its SSA id, or the
// scratch register 0 for void results.
func dst(in *core.Instr) int32 { return int32(in.ID) }

// edgeMoves is the phi moves for entering block b along predecessor edge
// k, sequenced: applied one at a time, in order, they have the parallel
// meaning of the block's phis. They are copied out of what sequenceEdges
// made into the function's move arena.
func (c *fcomp) edgeMoves(b *core.Block, k int) ([]Move, error) {
	if len(b.Phis) == 0 {
		return nil, nil
	}
	if k < 0 || k >= len(b.Preds) {
		return nil, fmt.Errorf("edge %d out of range for block %d (%d predecessors)",
			k, b.Index, len(b.Preds))
	}
	if uint(b.Index) >= uint(len(c.f.Blocks)) || c.f.Blocks[b.Index] != b {
		return nil, fmt.Errorf("block %d is not in its function's block list", b.Index)
	}
	e := c.first[b.Index] + int32(k)
	seq := c.seq[c.edgeAt[e]:c.edgeAt[e+1]]
	mv := carve(&c.moves, len(seq))
	copy(mv, seq)
	return mv, nil
}

// sequenceEdges sequences the phi moves of every edge of f into c.seq,
// once, and records in c.first and c.edgeAt where each edge's lie. A phi
// whose input count is not its block's edge count, or that names a value
// out of range or register 0, refuses the function: register 0 is the
// void-result scratch, which holds no SSA value (core.NoValue is 0), and
// sequence saves a cycle's value there.
func (c *fcomp) sequenceEdges(f *core.Func) error {
	nRegs, nBlocks := f.NumValues()+1, len(f.Blocks)
	reads, writer := c.ints[:nRegs], c.ints[nRegs:2*nRegs]
	clear(c.ints[:2*nRegs])
	c.first, c.edgeAt = c.ints[2*nRegs:2*nRegs+nBlocks], c.ints[2*nRegs+nBlocks:]
	e := 0
	for i, b := range f.Blocks {
		c.first[i] = int32(e)
		if len(b.Phis) == 0 {
			continue
		}
		for k := range b.Preds {
			par := c.par[:0]
			for _, phi := range b.Phis {
				if len(phi.Args) != len(b.Preds) {
					return fmt.Errorf("phi v%d of block %d has %d inputs for %d edges",
						phi.ID, b.Index, len(phi.Args), len(b.Preds))
				}
				src, err := c.reg(phi.Args[k])
				if err != nil {
					return err
				}
				d, err := c.reg(phi.ID)
				if err != nil {
					return err
				}
				if src == 0 || d == 0 {
					return fmt.Errorf("phi v%d of block %d moves register 0, the void-result scratch", phi.ID, b.Index)
				}
				par = append(par, Move{Dst: d, Src: src})
			}
			c.edgeAt[e] = int32(len(c.seq))
			c.seq = sequence(c.seq, par, reads, writer)
			e++
		}
	}
	c.edgeAt[e] = int32(len(c.seq))
	return nil
}

// sequence appends to out the moves of the parallel move set par, whose
// destinations are distinct and none of whose registers is 0, in an order
// whose one-at-a-time application has the parallel meaning: no register
// is written while a move still to come reads it. Self-moves are dropped.
//
// It takes time linear in len(par), using two counts per register that
// are zero on entry and left zero: reads[r], how many moves still to come
// read r, and writer[r], 1 + the index in par of the one still to come
// that writes it. A move whose destination nothing reads goes at once,
// and that may leave its source unread, freeing the move that writes the
// source to go next: a chain. What no chain reaches is disjoint cycles,
// in which every register is read exactly once; each is broken by saving
// one destination in register 0 and going round the cycle from there,
// the last move reading register 0 — one extra move per cycle.
func sequence(out, par []Move, reads, writer []int32) []Move {
	for i, m := range par {
		if m.Dst != m.Src {
			reads[m.Src]++
			writer[m.Dst] = int32(i) + 1
		}
	}
	// Chains: d is a destination still to be written; it goes once
	// nothing reads it.
	for _, m := range par {
		for d := m.Dst; writer[d] != 0 && reads[d] == 0; {
			w := par[writer[d]-1]
			out = append(out, w)
			writer[d] = 0
			reads[w.Src]--
			d = w.Src
		}
	}
	// Cycles: save d0, write round the cycle, restore d0's value from 0.
	for _, m := range par {
		d0 := m.Dst
		if writer[d0] == 0 {
			continue
		}
		out = append(out, Move{Dst: 0, Src: d0})
		for d := d0; writer[d] != 0; {
			w := par[writer[d]-1]
			writer[d] = 0
			reads[w.Src]--
			if w.Src == d0 {
				w.Src = 0
			}
			out = append(out, w)
			d = w.Src
		}
	}
	return out
}

// normalEdge finds the index of the normal (non-exception) predecessor
// edge from block `from` into b — the static counterpart of the
// reference evaluator's fr.prev scan.
func (c *fcomp) normalEdge(b, from *core.Block) (int, error) {
	for i, p := range b.Preds {
		if p.From == from && p.Site == nil {
			return i, nil
		}
	}
	fromIdx := -1
	if from != nil {
		fromIdx = from.Index
	}
	return 0, fmt.Errorf("no edge from block %d into block %d", fromIdx, b.Index)
}

// patchTo resolves every pending jump of the current flow to target
// with the given moves (nil when the destination has no phis or when
// the destination makes the source block irrelevant, e.g. a return).
func (c *fcomp) patchTo(target int32, moves []Move) {
	for _, j := range c.fl.jumps {
		c.code[j.at].Target = target
		c.code[j.at].Moves = moves
	}
	c.fl.jumps = nil
}

// collapse funnels all live paths into the current pc for a decision
// point (an if or loop condition) that cannot apply per-path phi moves.
// It returns the unique source block of the surviving path. The SafeTSA
// builder always materializes a merge block before reusing control
// (the current-block invariant of the CST), so distinct sources here
// mean a module shape the builder cannot emit; rejecting it keeps the
// compiler sound without path duplication.
func (c *fcomp) collapse() (*core.Block, error) {
	if c.fl.dead() {
		return nil, nil
	}
	var src *core.Block
	have := false
	if c.fl.open {
		src, have = c.fl.src, true
	}
	for _, j := range c.fl.jumps {
		if !have {
			src, have = j.src, true
			continue
		}
		if j.src != src {
			return nil, fmt.Errorf("ambiguous predecessor at decision point (blocks %d and %d)",
				blockIdx(src), blockIdx(j.src))
		}
	}
	c.patchTo(c.pc(), nil)
	c.fl = flow{open: true, src: src}
	return src, nil
}

func blockIdx(b *core.Block) int {
	if b == nil {
		return -1
	}
	return b.Index
}

// enterLoop emits the loop-entry phi moves of header h for every live
// path — inline for the open fallthrough, folded into each pending
// jump — and returns with the flow marked moved, ready for the header
// block itself. The entry moves run before the loop's per-iteration
// step charge; the reference evaluator charges the step first, but no
// observable action separates the two, so budget kills land on the
// same step either way.
func (c *fcomp) enterLoop(h *core.Block) error {
	if c.fl.open {
		e, err := c.normalEdge(h, c.fl.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		if len(mv) > 0 {
			c.emit(PreparedInst{Op: PMoves, Moves: mv})
		}
	}
	loopPC := c.pc()
	for _, j := range c.fl.jumps {
		e, err := c.normalEdge(h, j.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		c.code[j.at].Target = loopPC
		c.code[j.at].Moves = mv
	}
	c.fl = flow{open: true, moved: true}
	return nil
}

// backedge patches one loop exit (the open fallthrough or a pending
// jump) into a jump back to loopPC with the phi moves of header h.
func (c *fcomp) closeLoop(h *core.Block, loopPC int32, jumps []pendingJump) error {
	if c.fl.open {
		e, err := c.normalEdge(h, c.fl.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PJump, Target: loopPC, Moves: mv})
	}
	for _, j := range c.jappend(c.fl.jumps, jumps...) {
		e, err := c.normalEdge(h, j.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		c.code[j.at].Target = loopPC
		c.code[j.at].Moves = mv
	}
	c.fl.jumps = nil
	c.fl.open = false
	return nil
}

// divert turns the current flow into pending jumps (emitting a PJump
// for the open path) and returns them, leaving the flow dead. Break,
// continue, and the try body's exit over its handler all route through
// here, each jump keeping its own source block for later phi
// resolution.
func (c *fcomp) divert() []pendingJump {
	jumps := c.fl.jumps
	if c.fl.open {
		at := c.emit(PreparedInst{Op: PJump})
		jumps = c.jappend(jumps, pendingJump{at: int32(at), src: c.fl.src})
	}
	c.fl = flow{}
	return jumps
}

// popLoop closes the innermost loop and returns the exits it collected.
func (c *fcomp) popLoop() loopCtx {
	lc := c.loop[len(c.loop)-1]
	c.loop = c.loop[:len(c.loop)-1]
	return lc
}

func (c *fcomp) node(n *core.CSTNode) error {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case core.CSeq:
		for _, k := range n.Kids {
			if err := c.node(k); err != nil {
				return err
			}
		}
		return nil

	case core.CBlock:
		return c.block(n.Block)

	case core.CIf:
		src, err := c.collapse()
		if err != nil {
			return err
		}
		cond, err := c.reg(n.Cond)
		if err != nil {
			return err
		}
		br := c.emit(PreparedInst{Op: PBranchFalse, A: cond})
		c.fl = flow{open: true, src: src}
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		if len(n.Kids) > 1 && n.Kids[1] != nil {
			thenExit := c.divert()
			c.fl = flow{jumps: c.jappend(nil, pendingJump{at: int32(br), src: src})}
			if err := c.node(n.Kids[1]); err != nil {
				return err
			}
			c.fl.jumps = c.jappend(c.fl.jumps, thenExit...)
			return nil
		}
		c.fl.jumps = c.jappend(c.fl.jumps, pendingJump{at: int32(br), src: src})
		return nil

	case core.CWhile:
		if err := c.enterLoop(n.Block); err != nil {
			return err
		}
		loopPC := c.pc()
		c.emit(PreparedInst{Op: PLoopStep})
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		condSrc, err := c.collapse()
		if err != nil {
			return err
		}
		cond, err := c.reg(n.Cond)
		if err != nil {
			return err
		}
		exit := c.emit(PreparedInst{Op: PBranchFalse, A: cond})
		c.loop = append(c.loop, loopCtx{})
		c.fl = flow{open: true, src: condSrc}
		if err := c.node(n.Kids[1]); err != nil {
			return err
		}
		lc := c.popLoop()
		if err := c.closeLoop(n.Block, loopPC, lc.continues); err != nil {
			return err
		}
		c.fl = flow{jumps: c.jappend(lc.breaks, pendingJump{at: int32(exit), src: condSrc})}
		return nil

	case core.CDoWhile:
		if err := c.enterLoop(n.Block); err != nil {
			return err
		}
		loopPC := c.pc()
		c.emit(PreparedInst{Op: PLoopStep})
		c.loop = append(c.loop, loopCtx{})
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		lc := c.popLoop()
		// A continue in the body falls through to the latch sequence,
		// which resolves each path's phi moves at its first block.
		c.fl.jumps = c.jappend(c.fl.jumps, lc.continues...)
		if err := c.node(n.Kids[1]); err != nil {
			return err
		}
		condSrc, err := c.collapse()
		if err != nil {
			return err
		}
		cond, err := c.reg(n.Cond)
		if err != nil {
			return err
		}
		exit := c.emit(PreparedInst{Op: PBranchFalse, A: cond})
		if err := c.closeLoop(n.Block, loopPC, nil); err != nil {
			return err
		}
		c.fl = flow{jumps: c.jappend(lc.breaks, pendingJump{at: int32(exit), src: condSrc})}
		return nil

	case core.CReturn:
		c.patchTo(c.pc(), nil)
		if n.Val != core.NoValue {
			r, err := c.reg(n.Val)
			if err != nil {
				return err
			}
			c.emit(PreparedInst{Op: PReturnVal, A: r})
		} else {
			c.emit(PreparedInst{Op: PReturn})
		}
		c.fl = flow{}
		return nil

	case core.CBreak:
		if len(c.loop) == 0 {
			return fmt.Errorf("break outside a loop")
		}
		lc := &c.loop[len(c.loop)-1]
		lc.breaks = c.jappend(lc.breaks, c.divert()...)
		return nil

	case core.CContinue:
		if len(c.loop) == 0 {
			return fmt.Errorf("continue outside a loop")
		}
		lc := &c.loop[len(c.loop)-1]
		lc.continues = c.jappend(lc.continues, c.divert()...)
		return nil

	case core.CThrow:
		c.patchTo(c.pc(), nil)
		r, err := c.reg(n.Val)
		if err != nil {
			return err
		}
		c.site(c.emit(PreparedInst{Op: PThrow, A: r}))
		c.fl = flow{}
		return nil

	case core.CTry:
		if n.Handler == nil {
			return fmt.Errorf("try without a handler block")
		}
		c.tries = append(c.tries, raiseFixup{handler: n.Handler})
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		c.tries = c.tries[:len(c.tries)-1]
		after := c.divert()
		// The handler entry is reached only through raises, which apply
		// the exception-edge phi moves before transferring here.
		c.handlers[n.Handler] = c.pc()
		c.fl = flow{open: true, moved: true}
		if err := c.node(n.Kids[1]); err != nil {
			return err
		}
		c.fl.jumps = c.jappend(c.fl.jumps, after...)
		return nil
	}
	return fmt.Errorf("unhandled CST node %v", n.Kind)
}

// block compiles one basic block: entry phi moves for every incoming
// path, then the straight-line code.
func (c *fcomp) block(b *core.Block) error {
	if c.fl.open && !c.fl.moved && len(b.Phis) > 0 {
		e, err := c.normalEdge(b, c.fl.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(b, e)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PMoves, Moves: mv})
	}
	entry := c.pc()
	for _, j := range c.fl.jumps {
		mv := []Move(nil)
		if len(b.Phis) > 0 {
			e, err := c.normalEdge(b, j.src)
			if err != nil {
				return err
			}
			if mv, err = c.edgeMoves(b, e); err != nil {
				return err
			}
		}
		c.code[j.at].Target = entry
		c.code[j.at].Moves = mv
	}
	for _, in := range b.Code {
		if err := c.instr(in); err != nil {
			return fmt.Errorf("block %d, %s v%d: %w", b.Index, in.Op, in.ID, err)
		}
		if in.Op.CanThrow() {
			c.site(len(c.code) - 1) // the instruction the lowering ends with
		}
	}
	c.fl = flow{open: true, src: b}
	return nil
}

// argRegs validates the operands of an instruction of fixed arity (at
// most three) and converts them to registers.
func (c *fcomp) argRegs(in *core.Instr, want int) (out [3]int32, err error) {
	if len(in.Args) != want {
		return out, fmt.Errorf("%d operands, want %d", len(in.Args), want)
	}
	for i, id := range in.Args {
		if out[i], err = c.reg(id); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (c *fcomp) typeArg(id core.TypeID) (core.TypeID, error) {
	if c.mod.Types.Get(id) == nil {
		return 0, fmt.Errorf("type id %d out of range", id)
	}
	return id, nil
}

// site registers the exception edge of the exception site lowered last,
// at instruction index at — a potentially-throwing instruction or a throw
// node — for post-compilation fixup: the next edge of its innermost
// handler (core.Func.ExcSites). A site outside any try region keeps a nil
// Raise and lets the exception leave the function.
func (c *fcomp) site(at int) {
	if len(c.tries) == 0 {
		return
	}
	t := &c.tries[len(c.tries)-1]
	c.raiseFix = append(c.raiseFix, raiseFixup{at: at, handler: t.handler, edge: t.edge})
	t.edge++
}

func (c *fcomp) instr(in *core.Instr) error {
	switch in.Op {
	case core.OpParam:
		c.emit(PreparedInst{Op: PParam, Dst: dst(in), A: in.Aux})

	case core.OpConst:
		switch in.Const.Kind {
		case core.KInt, core.KLong, core.KChar, core.KBool:
			c.emit(PreparedInst{Op: PConst, Dst: dst(in), Val: rt.Value{I: in.Const.I}})
		case core.KDouble:
			c.emit(PreparedInst{Op: PConst, Dst: dst(in), Val: rt.DoubleValue(in.Const.D)})
		case core.KString:
			c.emit(PreparedInst{Op: PConstStr, Dst: dst(in), Str: in.Const.S})
		case core.KNull:
			c.emit(PreparedInst{Op: PConst, Dst: dst(in)})
		default:
			return fmt.Errorf("bad constant kind %d", in.Const.Kind)
		}

	case core.OpPrim, core.OpXPrim:
		if !in.Prim.Valid() {
			return fmt.Errorf("unknown primitive %d", uint8(in.Prim))
		}
		n := len(in.Prim.Sig().Params)
		a, err := c.argRegs(in, n)
		if err != nil {
			return err
		}
		p := PreparedInst{Op: PPrim, Prim: in.Prim, Dst: dst(in), A: a[0]}
		if n > 1 {
			p.B = a[1]
		}
		switch in.Prim {
		case core.PIDiv, core.PIRem, core.PLDiv, core.PLRem:
			p.Op = PXPrim
			c.emit(p)
			return nil
		}
		c.emit(p)

	case core.OpNullCheck:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PNullCheck, Dst: dst(in), A: a[0]})

	case core.OpIndexCheck:
		a, err := c.argRegs(in, 2)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PIndexCheck, Dst: dst(in), A: a[0], B: a[1]})

	case core.OpUpcast:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PUpcast, Dst: dst(in), A: a[0], Type: t})

	case core.OpDowncast:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PCopy, Dst: dst(in), A: a[0]})

	case core.OpInstanceOf:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PInstanceOf, Dst: dst(in), A: a[0], Type: t})

	case core.OpGetField, core.OpSetField:
		if in.Field < 0 || int(in.Field) >= len(c.mod.Fields) {
			return fmt.Errorf("field index %d out of range", in.Field)
		}
		fld := c.mod.Fields[in.Field]
		if fld.Static {
			if in.Op == core.OpGetField {
				c.emit(PreparedInst{Op: PGetStatic, Dst: dst(in), Type: fld.Owner, B: fld.Slot})
				return nil
			}
			a, err := c.argRegs(in, 1)
			if err != nil {
				return err
			}
			c.emit(PreparedInst{Op: PSetStatic, Type: fld.Owner, B: fld.Slot, A: a[0]})
			return nil
		}
		if in.Op == core.OpGetField {
			a, err := c.argRegs(in, 1)
			if err != nil {
				return err
			}
			c.emit(PreparedInst{Op: PGetField, Dst: dst(in), A: a[0], B: fld.Slot})
			return nil
		}
		a, err := c.argRegs(in, 2)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PSetField, A: a[0], B: fld.Slot, C: a[1]})

	case core.OpGetElt:
		a, err := c.argRegs(in, 2)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PGetElt, Dst: dst(in), A: a[0], B: a[1]})

	case core.OpSetElt:
		a, err := c.argRegs(in, 3)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PSetElt, A: a[0], B: a[1], C: a[2]})

	case core.OpArrayLen:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PArrayLen, Dst: dst(in), A: a[0]})

	case core.OpNew:
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PNew, Dst: dst(in), Type: t})

	case core.OpNewArray:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PNewArray, Dst: dst(in), A: a[0], Type: t})

	case core.OpXCall, core.OpXDispatch:
		if in.Method < 0 || int(in.Method) >= len(c.mod.Methods) {
			return fmt.Errorf("method index %d out of range", in.Method)
		}
		args := carve(&c.args, len(in.Args))
		for i, id := range in.Args {
			r, err := c.reg(id)
			if err != nil {
				return err
			}
			args[i] = r
		}
		mr := &c.mod.Methods[in.Method]
		p := PreparedInst{Dst: dst(in), A: in.Method, Args: args}
		if in.Op == core.OpXDispatch {
			p.Op = PDispatch
		} else {
			p.Op = PCall
			p.B = mr.FuncIdx
			if mr.FuncIdx >= 0 && int(mr.FuncIdx) >= c.nFuncs {
				return fmt.Errorf("function index %d out of range", mr.FuncIdx)
			}
		}
		c.emit(p)

	case core.OpCatch:
		c.emit(PreparedInst{Op: PCatch, Dst: dst(in)})

	default:
		// OpPhi lives in the phi section, OpMem0 only inside producer
		// optimization; neither reaches a verified consumer module.
		return fmt.Errorf("opcode %s is not executable", in.Op)
	}
	return nil
}
