package interp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the compiled engine, the third execution engine: Compile
// encodes each PreparedInst of an already-prepared module as a record — a
// handler that captures nothing, and the operands it reads — so a
// function body is one array of records that the dispatch loop reads as
// data, pc = code[pc].run(fr, &code[pc]): one indirect call per record,
// no opcode switch, no per-step field decoding. Registers, jump targets
// and the fallthrough pc are the record's own fields; phi-move sets, call
// operand vectors, exception edges and string constants live in the
// function's side arrays, which the record indexes. Hot primitives
// (int/long/double arithmetic and comparisons) have a handler each
// instead of going through the shared evalPrim switch.
//
// Compile runs strictly after Prepare (which runs strictly after the
// verifier) and repeats none of their checks. Prepare is the single gate
// that bounds every register, jump target, move, exception edge, method
// and type id of the lowered form; Compile accepts only a form Prepare
// minted from this very module (see bound) and writes those indices into
// records as they stand, trusting them exactly as runPrepared does when
// it executes the same []PreparedInst. A prepared form is read-only, like
// the verified module it came from.
//
// Budget parity is structural: every handler of an opcode below pCtrl
// calls rt.Env.Step() before any side effect, exactly where runPrepared
// charges, and allocation charges flow through the same
// Env.NewObject/NewArray/Concat entry points — so step kills, alloc
// kills, and interrupts land on the identical instruction in all three
// engines, which the three-way differential oracle checks bit-exactly.
//
// Shared-module invariant: lowered code, like the prepared function it
// was encoded from, is immutable and session-free — a record names no
// Loader and no Env. All mutable state (registers, arguments, the
// caught-exception slot) reaches a handler through the *cframe argument,
// so one Compiled may back any number of concurrent sessions. What a
// Compiled holds changes only by a slot going from empty to filled, once
// (see Loader.lower).

// cinst is one lowered instruction (DESIGN.md §5b): run is a handler that
// captures nothing, the int32 fields are the operands it reads, and next
// is the pc control falls through to. x is the one index into the
// function's side arrays: a raise site (noRaise for none), a string
// constant, or the first move of a move set. Field use by handler is
// encode's table.
type cinst struct {
	run                   handler
	dst, a, b, c, x, next int32
}

// handler executes the record in and returns the next pc, or a negative
// sentinel to leave the function.
type handler func(fr *cframe, in *cinst) int32

// second is the record after in: the second half of the pair whose first
// half in is. A pair's handler is only ever the first of two records of
// one function's code.
func (in *cinst) second() *cinst {
	return (*cinst)(unsafe.Add(unsafe.Pointer(in), unsafe.Sizeof(cinst{})))
}

// The two ways out of a function body, both with the outcome in fr.ret:
// cDone is what a return yields (fr.ret is the result), cThrow what a
// raise with no local handler yields (fr.ret is the exception). A guest
// exception is a transition of this machine — it unwinds by returning
// cThrow frame by frame, never by a Go panic.
const (
	cDone  = int32(-1)
	cThrow = int32(-2)
)

// noRaise is the x of a record whose raise leaves the function.
const noRaise = int32(-1)

// csite is an exception edge: on a raise, moves[mv:mv+n] of the
// function's side arrays are applied and control goes to target.
type csite struct{ target, mv, n int32 }

// CFunc is one compiled function body.
type CFunc struct {
	// NumRegs matches the prepared form: slot v holds SSA value v,
	// slot 0 is the void-result scratch register.
	NumRegs int32
	// Frame is what one activation holds of rt.MaxStackSlots.
	Frame int64
	Code  []cinst

	// The side arrays the records index, each exactly as long as its
	// records need: every move set (a record's or an edge's), every
	// call's operand vector as its length and then its registers, the
	// exception edges, and the templates of the string constants.
	moves []Move
	args  []int32
	sites []csite
	strs  []rt.Str
}

// Compiled is the compiled form of a module: a slot per function, holding
// its compiled body once some session has lowered it. Lazy and PulledIn
// mint one with every slot empty and Compile one with every slot filled;
// the sessions it backs, any number of them concurrently, fill an empty
// slot the first time one of them calls the function, and a filled slot
// never changes.
type Compiled struct {
	funcs []atomic.Pointer[CFunc] // parallel to Module.Funcs
	// mod is the module this form was minted from (see bound).
	mod *core.Module
	// mu serialises first calls (Loader.lower): the pulls, the lowering,
	// and every carve from mem.
	mu sync.Mutex
	// pull, when non-nil, is where a first call gets a body mod.Funcs does
	// not hold yet: it admits function fi and returns it, or says why it
	// cannot. A body reaches the lowering from pull's result, so no
	// session reads mod.Funcs while a pull appends to it.
	pull func(fi int) (*core.Func, error)
	// mem is what the form's code is carved from: memory a door lent
	// (PulledIn) or the form's own.
	mem *CodeArena
}

// newCompiled mints mod's form with n empty slots, its code carved from
// mem, or from memory of its own when mem is nil.
func newCompiled(mod *core.Module, n int, pull func(fi int) (*core.Func, error), mem *CodeArena) *Compiled {
	if mem == nil {
		mem = new(CodeArena)
	} else {
		mem.lend()
	}
	return &Compiled{mod: mod, funcs: make([]atomic.Pointer[CFunc], n), pull: pull, mem: mem}
}

// Lazy mints mod's compiled form with nothing lowered yet: a session
// lowers a function the first time it is called (Loader.cfunc), so a run
// pays for the functions it calls and a resident unit pays for each
// function once. The slots are sized by the functions mod holds — for an
// admitted module, the bodies that were decoded and verified, not a count
// any input declared.
func Lazy(mod *core.Module) *Compiled {
	return newCompiled(mod, len(mod.Funcs), nil, nil)
}

// PulledIn is Lazy for a module whose bodies are still behind an
// admission cursor: mod holds the verified tables, pull(fi) admits
// function fi and returns its body, and n is how many functions there
// are. The form has a slot for each, so n must be a count an earlier
// admission of the whole unit proved, never one the input merely
// declares. The first call of a function that any session makes — a
// fresh one or the clone of a Snapshot — pulls it under the form's lock,
// so all of them pull through the one cursor and each body is decoded
// once. A pull that fails ends the calling session with its error, as a
// lowering refusal does. The form's code is carved from mem, which the
// caller lends for as long as anything may run the form and then takes
// back whole (CodeArena.Rewind); a nil mem gives the form an arena of its
// own.
func PulledIn(mod *core.Module, n int, pull func(fi int) (*core.Func, error), mem *CodeArena) *Compiled {
	return newCompiled(mod, n, pull, mem)
}

// body returns function fi's admitted body for its first lowering. The
// caller holds c.mu.
func (c *Compiled) body(fi int32) (*core.Func, error) {
	if c.pull == nil {
		return c.mod.Funcs[fi], nil
	}
	return c.pull(int(fi))
}

// CodeArena is the memory lowered code is carved from: the records, side
// arrays and headers of every function lowered into one form, so lowering
// costs a chunk per ~128 records, not an allocation per instruction. A
// form minted without one has an arena of its own, which the collector
// takes back with the form; a door that lends one (PulledIn) takes it
// back whole once nothing runs the form's code (Rewind) and lends it to
// the next unit, whose functions are carved from the same chunks. The
// zero CodeArena is ready to use; an arena serves one form at a time.
type CodeArena struct {
	funcs core.Slab[CFunc]
	code  core.Slab[cinst]
	moves core.Slab[Move]
	args  core.Slab[int32]
	sites core.Slab[csite]
	strs  core.Slab[rt.Str]
}

// lend makes m's slabs keep their chunks, for Rewind.
func (m *CodeArena) lend() {
	m.funcs.Recycle()
	m.code.Recycle()
	m.moves.Recycle()
	m.args.Recycle()
	m.sites.Recycle()
	m.strs.Recycle()
}

// Rewind takes back every function lowered into m since it was lent, so
// the next form's are carved from the same chunks, and reports the bytes
// m keeps. While core.Poisoning every record handed out becomes one whose
// handler panics "recycled code executed", and every header one whose
// code is such a record, so code that outlived its unit fails loudly
// instead of running whatever the next unit put there. The caller vouches
// that no session runs the form any more.
func (m *CodeArena) Rewind() int {
	return m.funcs.Rewind() + m.code.Rewind() + m.moves.Rewind() + m.args.Rewind() +
		m.sites.Rewind() + m.strs.Rewind()
}

// recycledCode is what a poisoned header's body holds (CFunc.Junk).
var recycledCode = [1]cinst{{run: hRecycled}}

// Junk makes in the junk record of poisoned code memory (core.Poison).
func (in *cinst) Junk() { *in = recycledCode[0] }

// Junk makes f the junk header of poisoned code memory (core.Poison).
func (f *CFunc) Junk() { *f = CFunc{Code: recycledCode[:]} }

// hRecycled is the handler of a record in code memory that was given
// back under core.PoisonRecycled: something ran code after its unit let
// go of it.
func hRecycled(*cframe, *cinst) int32 { panic("interp: recycled code executed") }

// cframe is the per-invocation state of one compiled function: the
// session, the body, and its windows of the stack (the registers from at).
// Handlers receive everything session-scoped through here, never records.
type cframe struct {
	l      *Loader
	env    *rt.Env
	fn     *CFunc
	regs   []rt.Value
	args   []rt.Value
	caught rt.Value
	ret    rt.Value
	at     int
}

// craise raises exception value v from a compiled site: through raise
// site x into its handler (applying the exception edge's phi moves and
// returning the handler pc) or, with none, out of the function as cThrow.
// It serves a site's own raise and an exception a callee returned alike.
func (fr *cframe) craise(x int32, v rt.Value) int32 {
	if x == noRaise {
		fr.ret = v
		return cThrow
	}
	s := &fr.fn.sites[x]
	applyMoves(fr.regs, fr.fn.moves[s.mv:s.mv+s.n])
	fr.caught = v
	return s.target
}

// from is the module c was minted from; nil for a nil or hand-built form.
func (c *Compiled) from() *core.Module {
	if c == nil {
		return nil
	}
	return c.mod
}

// Compile encodes a prepared module as records, every slot filled up
// front: the eager schedule, for the oracles and for callers that time
// lowering apart from running. prep must be the form Prepare minted from
// mod — any other is rejected. Compile never executes guest code.
func Compile(mod *core.Module, prep *Prepared) (*Compiled, error) {
	if err := bound(mod, "prepared", prep.from()); err != nil {
		return nil, err
	}
	c := Lazy(mod)
	lw := lowerers.Take()
	defer lowerers.Give(lw)
	for i, pf := range prep.Funcs {
		cf, err := lw.compileFunc(pf, c.mem)
		if err != nil {
			return nil, fmt.Errorf("interp: compile %s: %w", mod.FuncName(mod.Funcs[i]), err)
		}
		c.funcs[i].Store(cf)
	}
	return c, nil
}

// compileFunc encodes one prepared function body into mem, record by
// record: the pair's handler where code[pc] starts one (fuse.go), else
// the instruction's own, falling through to the threaded pc+1. The side
// arrays are collected in the lowerer's scratch and kept in mem at their
// exact length.
func (c *fcomp) compileFunc(pf *PFunc, mem *CodeArena) (*CFunc, error) {
	code := mem.code.Take(len(pf.Code))
	c.side = side{moves: c.side.moves[:0], args: c.side.args[:0], sites: c.side.sites[:0], strs: c.side.strs[:0]}
	for pc := range pf.Code {
		r, err := c.side.encode(&pf.Code[pc], threaded(pf.Code, int32(pc+1)))
		if err != nil {
			return nil, fmt.Errorf("pc %d: %w", pc, err)
		}
		if h, next := fuse(pf.Code, pc); h != nil {
			r.run, r.next = h, next
		}
		code[pc] = r
	}
	cf := mem.funcs.One()
	*cf = CFunc{NumRegs: pf.NumRegs, Frame: pf.Frame, Code: code,
		moves: mem.moves.Keep(c.side.moves), args: mem.args.Keep(c.side.args),
		sites: mem.sites.Keep(c.side.sites), strs: mem.strs.Keep(c.side.strs)}
	return cf, nil
}

// lowerFunc is the whole lowering of one admitted function into mem, the
// unit both schedules share: Prepare and Compile are loops over its two
// halves, and a session runs both on a function the first time it calls
// it (see Loader.lower), adding what each half took to spent.
func (c *fcomp) lowerFunc(f *core.Func, spent *Lowering, mem *CodeArena) (*CFunc, error) {
	start := time.Now()
	pf, err := c.flatten(f, false)
	if err != nil {
		return nil, fmt.Errorf("interp: prepare %s: %w", c.mod.FuncName(f), err)
	}
	flat := time.Now()
	cf, err := c.compileFunc(&pf, mem)
	if err != nil {
		return nil, fmt.Errorf("interp: compile %s: %w", c.mod.FuncName(f), err)
	}
	fused := time.Now()
	spent.Funcs++
	spent.Flatten += flat.Sub(start)
	spent.Fuse += fused.Sub(flat)
	return cf, nil
}

// side is the side arrays of the function being encoded, as they grow.
type side struct {
	moves []Move
	args  []int32
	sites []csite
	strs  []rt.Str
}

// moveSet appends mv to the move sets and returns where it starts.
func (s *side) moveSet(mv []Move) int32 {
	at := int32(len(s.moves))
	s.moves = append(s.moves, mv...)
	return at
}

// site is the x of a record that raises through rs.
func (s *side) site(rs *RaiseSite) int32 {
	if rs == nil {
		return noRaise
	}
	s.sites = append(s.sites, csite{target: rs.Target, mv: s.moveSet(rs.Moves), n: int32(len(rs.Moves))})
	return int32(len(s.sites) - 1)
}

// encode is prepared instruction in as a record of its own: its opcode's
// handler and the operands that handler reads, with next as where it
// falls through to. Field use, where it is not the prepared
// instruction's own Dst, A, B, C:
//
//	const          a, b    the low and high word of Val.I (a constant
//	                       is never a reference)
//	conststr       x       strs[x], the constant's template
//	prim           c       the primitive, for the evalPrim fallback
//	upcast, instanceof, getstatic, setstatic, new, newarray
//	               c       Type
//	call, dispatch c       args[c] is the operand count, the registers
//	                       follow it
//	jump           next    Target
//	branchfalse    b       Target
//	one move       dst, a  the move's Dst and Src (branchfalse: dst, c)
//	more moves     x, c    moves[x:x+c]
//	raising ops    x       sites[x], or noRaise
func (s *side) encode(in *PreparedInst, next int32) (cinst, error) {
	r := cinst{dst: in.Dst, a: in.A, b: in.B, c: in.C, x: noRaise, next: next}
	switch in.Op {
	case PConst:
		if in.Val.R != nil {
			return cinst{}, fmt.Errorf("constant is a reference")
		}
		r.run, r.a, r.b = hConst, int32(in.Val.I), int32(in.Val.I>>32)
	case PConstStr:
		// A fresh *rt.Str per execution, like the other two engines —
		// reference identity (PREq) must not observe compiled-form sharing.
		r.run, r.x = hConstStr, int32(len(s.strs))
		s.strs = append(s.strs, *rt.ConstStr(in.Str))
	case PParam:
		r.run = hParam
	case PCopy:
		r.run = hCopy
	case PPrim:
		r.run, r.c = primHandlers[in.Prim], int32(in.Prim)
		if r.run == nil {
			r.run = hEvalPrim
		}
	case PXPrim:
		r.run, r.x = xprimHandlers[in.Prim], s.site(in.Raise)
		if r.run == nil {
			return cinst{}, fmt.Errorf("primitive %s is not a trapping division", in.Prim)
		}
	case PNullCheck:
		r.run, r.x = hNullCheck, s.site(in.Raise)
	case PIndexCheck:
		r.run, r.x = hIndexCheck, s.site(in.Raise)
	case PUpcast:
		r.run, r.c, r.x = hUpcast, int32(in.Type), s.site(in.Raise)
	case PInstanceOf:
		r.run, r.c = hInstanceOf, int32(in.Type)
	case PGetField:
		r.run = hGetField
	case PSetField:
		r.run = hSetField
	case PGetStatic:
		r.run, r.c = hGetStatic, int32(in.Type)
	case PSetStatic:
		r.run, r.c = hSetStatic, int32(in.Type)
	case PGetElt:
		r.run = hGetElt
	case PSetElt:
		r.run = hSetElt
	case PArrayLen:
		r.run = hArrayLen
	case PNew:
		r.run, r.c = hNew, int32(in.Type)
	case PNewArray:
		r.run, r.c, r.x = hNewArray, int32(in.Type), s.site(in.Raise)
	case PCall, PDispatch:
		r.run, r.c, r.x = hCall, int32(len(s.args)), s.site(in.Raise)
		if in.Op == PDispatch {
			r.run = hDispatch
		}
		s.args = append(s.args, int32(len(in.Args)))
		s.args = append(s.args, in.Args...)
	case PCatch:
		r.run = hCatch
	case PLoopStep:
		// The whole instruction is the step charge: one unit of budget
		// per loop iteration, same point as the other two engines.
		r.run = hLoopStep
	case PJump:
		r.next = in.Target
		r.run = s.transfer(&r, in.Moves)
	case PBranchFalse:
		r.b = in.Target
		switch len(in.Moves) {
		case 0:
			r.run = hBranchFalse
		case 1:
			r.run, r.dst, r.c = hBranchFalseMove, in.Moves[0].Dst, in.Moves[0].Src
		default:
			r.run, r.x, r.c = hBranchFalseMoves, s.moveSet(in.Moves), int32(len(in.Moves))
		}
	case PMoves:
		r.run = s.transfer(&r, in.Moves)
	case PReturn:
		r.run = hReturn
	case PReturnVal:
		r.run = hReturnVal
	case PThrow:
		r.run, r.x = hThrow, s.site(in.Raise)
	default:
		return cinst{}, fmt.Errorf("unhandled prepared opcode %s", in.Op)
	}
	return r, nil
}

// transfer encodes the move set of an unconditional transfer (a jump, a
// fallthrough's phi entry) into r and returns the handler for its size:
// none, one (in dst and a), or more (moves[x:x+c]).
func (s *side) transfer(r *cinst, mv []Move) handler {
	switch len(mv) {
	case 0:
		return hGo
	case 1:
		r.dst, r.a = mv[0].Dst, mv[0].Src
		return hMove
	}
	r.x, r.c = s.moveSet(mv), int32(len(mv))
	return hMoves
}

// stack is a compiled session's activations (DESIGN.md §5b): a frame
// record per call depth, made on the first call that deep and reused
// after, and one slot array. A call pushes its arguments (callArgs), then
// its callee's register file (getFrame), each a window of exactly its
// length; putFrame and called pop them. Only a kill or a lowering refusal
// panics past frames, and catchTopLevel then empties the stack, so
// frames[:depth] are the live activations and slots[:top] their windows.
// A popped window is not cleared within a session (every register and
// argument is written before it is read); Rewind clears it for the next.
type stack struct {
	frames []*cframe
	depth  int
	slots  []rt.Value
	top    int
	used   int // the highest top a pop has lowered; at Rewind, every slot past it is zero
}

var stacks = core.NewStock("interp.frames", maxStockBytes, func() *stack { return new(stack) })

// push cuts a window of n slots off the top of the stack.
func (s *stack) push(n int) []rt.Value {
	s.top += n
	if s.top > len(s.slots) {
		s.grow()
	}
	return s.slots[s.top-n : s.top]
}

// pop lowers the top of the stack to to, recording first how high it
// was, so used is the highest top any pop ended.
func (s *stack) pop(to int) {
	s.used = max(s.used, s.top)
	s.top = to
}

// grow moves the stack to an array at least twice as long, and every live
// frame's windows with it, so the outgrown array is garbage. It is out of
// line so that push inlines.
//
//go:noinline
func (s *stack) grow() {
	slots := make([]rt.Value, max(2*len(s.slots), s.top, 256))
	copy(slots, s.slots)
	for _, fr := range s.frames[:s.depth] {
		fr.args = slots[fr.at-len(fr.args) : fr.at]
		fr.regs = slots[fr.at : fr.at+len(fr.regs)]
	}
	s.slots = slots
}

// A released stack carries at most maxStockBytes of slots, slotBytes
// each, and maxStockFrames frame records to the next session (DESIGN.md §9).
const (
	maxStockBytes  = 384 << 10
	maxStockFrames = 64
	slotBytes      = int(unsafe.Sizeof(rt.Value{}))
)

// Rewind clears the frame records and the slots the session used, trims
// the stack to maxStockBytes of slots and maxStockFrames records, and
// reports the bytes of slots kept. Its poisoned form is its cleared one.
func (s *stack) Rewind() int {
	if len(s.slots)*slotBytes > maxStockBytes {
		s.slots = nil
	} else {
		clear(s.slots[:s.used])
	}
	if len(s.frames) > maxStockFrames {
		s.frames = append([]*cframe(nil), s.frames[:maxStockFrames]...)
	}
	for _, fr := range s.frames {
		*fr = cframe{}
	}
	s.depth, s.top, s.used = 0, 0, 0
	return len(s.slots) * slotBytes
}

// getFrame pushes the activation of cf over the nargs argument slots on
// top of the stack. It and putFrame are the compiled engine's Enter and
// Leave: the depth charge lands before the frame exists.
func (l *Loader) getFrame(cf *CFunc, nargs int) *cframe {
	l.Env.Enter(cf.Frame)
	s := l.stack
	at := s.top
	regs := s.push(int(cf.NumRegs))
	if s.depth == len(s.frames) {
		s.frames = append(s.frames, new(cframe))
	}
	fr := s.frames[s.depth]
	s.depth++
	fr.l, fr.env, fr.fn, fr.at = l, l.Env, cf, at
	fr.regs, fr.args = regs, s.slots[at-nargs:at]
	return fr
}

// putFrame pops fr's register file; its arguments are its caller's to pop.
func (l *Loader) putFrame(fr *cframe) {
	l.Env.Leave(fr.fn.Frame)
	s := l.stack
	s.depth--
	s.pop(fr.at)
}

// runCompiled executes one compiled function body over the nargs slots on
// top of the stack: run the record at pc, go where it says, until one
// yields cDone or cThrow. thrown reports which; v is the result or the
// exception accordingly.
func (l *Loader) runCompiled(cf *CFunc, nargs int) (v rt.Value, thrown bool) {
	fr := l.getFrame(cf, nargs)
	code := cf.Code
	pc := int32(0)
	for pc >= 0 {
		in := &code[pc]
		pc = in.run(fr, in)
	}
	v = fr.ret
	l.putFrame(fr)
	return v, pc == cThrow
}

// cinvoke runs a resolved callee on args, the window on top of the
// stack: compiled function body or native method.
func (l *Loader) cinvoke(mr *core.MethodRef, fi int32, args []rt.Value) (v rt.Value, thrown bool) {
	if fi >= 0 {
		return l.runCompiled(l.cfunc(fi), len(args))
	}
	return l.native(mr, args)
}

// ---------------------------------------------------------------------
// The handlers of single instructions. Each reads its operands from its
// record, charges its step before any side effect, and returns in.next
// unless it transfers control.

// constOf is the constant a const record holds.
func constOf(in *cinst) rt.Value {
	return rt.Value{I: int64(uint32(in.a)) | int64(in.b)<<32}
}

func hConst(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = constOf(in)
	return in.next
}

func hConstStr(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.RefValue(fr.env.Fresh(&fr.fn.strs[in.x]))
	return in.next
}

func hParam(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.args[in.a]
	return in.next
}

func hCopy(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.regs[in.a]
	return in.next
}

func hNullCheck(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	v := fr.regs[in.a]
	if v.R == nil {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.NPE, "null dereference"))
	}
	fr.regs[in.dst] = v
	return in.next
}

func hIndexCheck(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	arr := fr.regs[in.a].R.(*rt.Array)
	idx := fr.regs[in.b].Int()
	if idx < 0 || int(idx) >= len(arr.Elems) {
		return fr.craise(in.x, fr.l.boundsExc(idx, len(arr.Elems)))
	}
	fr.regs[in.dst] = rt.IntValue(idx)
	return in.next
}

func hUpcast(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	v := fr.regs[in.a]
	if v.R != nil && !fr.l.isInstance(v.R, core.TypeID(in.c)) {
		return fr.craise(in.x, fr.l.castExc(core.TypeID(in.c)))
	}
	fr.regs[in.dst] = v
	return in.next
}

func hInstanceOf(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	v := fr.regs[in.a]
	fr.regs[in.dst] = rt.BoolValue(v.R != nil && fr.l.isInstance(v.R, core.TypeID(in.c)))
	return in.next
}

func hGetField(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.regs[in.a].R.(*rt.Object).Fields[in.b]
	return in.next
}

func hSetField(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.a].R.(*rt.Object).Fields[in.b] = fr.regs[in.c]
	return in.next
}

// Statics are per-session storage, so the ClassInfo lookup goes through
// the frame's Loader.

func hGetStatic(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.l.classes[in.c].Statics[in.b]
	return in.next
}

func hSetStatic(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.l.classes[in.c].Statics[in.b] = fr.regs[in.a]
	return in.next
}

func hGetElt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	arr := fr.regs[in.a].R.(*rt.Array)
	fr.regs[in.dst] = arr.Elems[fr.regs[in.b].Int()]
	return in.next
}

func hSetElt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	arr := fr.regs[in.a].R.(*rt.Array)
	arr.Elems[fr.regs[in.b].Int()] = fr.regs[in.c]
	return in.next
}

func hArrayLen(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(int32(len(fr.regs[in.a].R.(*rt.Array).Elems)))
	return in.next
}

func hNew(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.RefValue(fr.env.NewObject(fr.l.classes[in.c]))
	return in.next
}

func hNewArray(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	n := fr.regs[in.a].Int()
	if n < 0 {
		return fr.craise(in.x, fr.l.negSizeExc(n))
	}
	fr.regs[in.dst] = rt.RefValue(fr.env.NewArray(n, in.c))
	return in.next
}

// callArgs pushes a call's argument vector, filled from its operand
// registers.
func (fr *cframe) callArgs(in *cinst) []rt.Value {
	vec := fr.fn.args[in.c:]
	regs := vec[1 : 1+vec[0]]
	args := fr.l.stack.push(len(regs))
	for i, r := range regs {
		args[i] = fr.regs[r]
	}
	return args
}

// called finishes a call: its argument vector is popped, so fr's register
// file is the top of the stack again, and the callee's result is written
// or its exception raised here.
func (fr *cframe) called(in *cinst, out rt.Value, thrown bool) int32 {
	fr.l.stack.pop(fr.at + len(fr.regs))
	if thrown {
		return fr.craise(in.x, out)
	}
	fr.regs[in.dst] = out
	return in.next
}

// hCall calls method a, function b (a native when b < 0).
func hCall(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	args := fr.callArgs(in)
	out, thrown := fr.l.cinvoke(&fr.l.Mod.Methods[in.a], in.b, args)
	return fr.called(in, out, thrown)
}

// hDispatch calls method a through the receiver's dispatch table, as
// pcall does: polymorphic association through the dispatch-table slot,
// while host-implemented receivers (strings) bind statically.
func hDispatch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	args := fr.callArgs(in)
	methods := fr.l.Mod.Methods
	mr := &methods[in.a]
	if recv, ok := args[0].R.(*rt.Object); ok && int(mr.VSlot) < len(recv.Class.VTable) {
		mr = &methods[recv.Class.VTable[mr.VSlot]]
	}
	out, thrown := fr.l.cinvoke(mr, mr.FuncIdx, args)
	return fr.called(in, out, thrown)
}

func hCatch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.caught
	return in.next
}

func hLoopStep(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return in.next
}

// The control records charge nothing, in every engine.

func hGo(_ *cframe, in *cinst) int32 { return in.next }

func hMove(fr *cframe, in *cinst) int32 {
	fr.regs[in.dst] = fr.regs[in.a]
	return in.next
}

func hMoves(fr *cframe, in *cinst) int32 {
	applyMoves(fr.regs, fr.fn.moves[in.x:in.x+in.c])
	return in.next
}

func hBranchFalse(fr *cframe, in *cinst) int32 {
	if fr.regs[in.a].I == 0 {
		return in.b
	}
	return in.next
}

func hBranchFalseMove(fr *cframe, in *cinst) int32 {
	if fr.regs[in.a].I == 0 {
		fr.regs[in.dst] = fr.regs[in.c]
		return in.b
	}
	return in.next
}

func hBranchFalseMoves(fr *cframe, in *cinst) int32 {
	if fr.regs[in.a].I == 0 {
		applyMoves(fr.regs, fr.fn.moves[in.x:in.x+in.c])
		return in.b
	}
	return in.next
}

func hReturn(fr *cframe, _ *cinst) int32 {
	fr.ret = rt.Value{}
	return cDone
}

func hReturnVal(fr *cframe, in *cinst) int32 {
	fr.ret = fr.regs[in.a]
	return cDone
}

func hThrow(fr *cframe, in *cinst) int32 {
	v := fr.regs[in.a]
	if v.R == nil {
		v = fr.l.newExc(fr.l.exc.NPE, "throw of null")
	}
	return fr.craise(in.x, v)
}

// The trapping divisions.

func hIDiv(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	bv := fr.regs[in.b].Int()
	if bv == 0 {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
	}
	fr.regs[in.dst] = rt.IntValue(rt.IDiv(fr.regs[in.a].Int(), bv))
	return in.next
}

func hIRem(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	bv := fr.regs[in.b].Int()
	if bv == 0 {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
	}
	fr.regs[in.dst] = rt.IntValue(rt.IRem(fr.regs[in.a].Int(), bv))
	return in.next
}

func hLDiv(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	bv := fr.regs[in.b].I
	if bv == 0 {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
	}
	fr.regs[in.dst] = rt.LongValue(rt.LDiv(fr.regs[in.a].I, bv))
	return in.next
}

func hLRem(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	bv := fr.regs[in.b].I
	if bv == 0 {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
	}
	fr.regs[in.dst] = rt.LongValue(rt.LRem(fr.regs[in.a].I, bv))
	return in.next
}

var xprimHandlers = [256]handler{core.PIDiv: hIDiv, core.PIRem: hIRem, core.PLDiv: hLDiv, core.PLRem: hLRem}

// primHandlers has a handler for each hot primitive — int/long/double
// arithmetic and comparisons, the ops that dominate corpus run time; any
// other (string building, math intrinsics, the rare conversions) runs
// hEvalPrim, the shared evalPrim switch, so the engines cannot drift on
// the long tail. A handler per primitive, not one over a table of
// operators, keeps each to one indirect call (DESIGN.md §5b).
var primHandlers = [256]handler{
	core.PIAdd: hIAdd, core.PISub: hISub, core.PIMul: hIMul, core.PINeg: hINeg,
	core.PIAnd: hIAnd, core.PIOr: hIOr, core.PIXor: hIXor, core.PIShl: hIShl, core.PIShr: hIShr,
	core.PIEq: hIEq, core.PINe: hINe, core.PILt: hILt, core.PILe: hILe, core.PIGt: hIGt, core.PIGe: hIGe,
	core.PI2L: hI2L, core.PI2D: hI2D,
	core.PLAdd: hLAdd, core.PLSub: hLSub, core.PLMul: hLMul,
	core.PLEq: hLEq, core.PLNe: hLNe, core.PLLt: hLLt, core.PLLe: hLLe, core.PLGt: hLGt, core.PLGe: hLGe,
	core.PDAdd: hDAdd, core.PDSub: hDSub, core.PDMul: hDMul, core.PDDiv: hDDiv,
	core.PDEq: hDEq, core.PDNe: hDNe, core.PDLt: hDLt, core.PDLe: hDLe, core.PDGt: hDGt, core.PDGe: hDGe,
	core.PBNot: hBNot, core.PBAnd: hBAnd, core.PBOr: hBOr,
}

// hEvalPrim is the long tail: string building, math intrinsics,
// conversions, reference equality — evaluated by the shared switch so all
// engines agree.
func hEvalPrim(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.l.evalPrim(core.PrimOp(in.c), fr.regs[in.a], fr.regs[in.b])
	return in.next
}

func hIAdd(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() + fr.regs[in.b].Int())
	return in.next
}

func hISub(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() - fr.regs[in.b].Int())
	return in.next
}

func hIMul(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() * fr.regs[in.b].Int())
	return in.next
}

func hINeg(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(-fr.regs[in.a].Int())
	return in.next
}

func hIAnd(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() & fr.regs[in.b].Int())
	return in.next
}

func hIOr(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() | fr.regs[in.b].Int())
	return in.next
}

func hIXor(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() ^ fr.regs[in.b].Int())
	return in.next
}

func hIShl(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() << (uint32(fr.regs[in.b].Int()) & 31))
	return in.next
}

func hIShr(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.IntValue(fr.regs[in.a].Int() >> (uint32(fr.regs[in.b].Int()) & 31))
	return in.next
}

func hIEq(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].Int() == fr.regs[in.b].Int())
	return in.next
}

func hINe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].Int() != fr.regs[in.b].Int())
	return in.next
}

func hILt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].Int() < fr.regs[in.b].Int())
	return in.next
}

func hILe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].Int() <= fr.regs[in.b].Int())
	return in.next
}

func hIGt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].Int() > fr.regs[in.b].Int())
	return in.next
}

func hIGe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].Int() >= fr.regs[in.b].Int())
	return in.next
}

func hI2L(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.LongValue(int64(fr.regs[in.a].Int()))
	return in.next
}

func hI2D(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.DoubleValue(float64(fr.regs[in.a].Int()))
	return in.next
}

func hLAdd(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.LongValue(fr.regs[in.a].I + fr.regs[in.b].I)
	return in.next
}

func hLSub(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.LongValue(fr.regs[in.a].I - fr.regs[in.b].I)
	return in.next
}

func hLMul(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.LongValue(fr.regs[in.a].I * fr.regs[in.b].I)
	return in.next
}

func hLEq(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I == fr.regs[in.b].I)
	return in.next
}

func hLNe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I != fr.regs[in.b].I)
	return in.next
}

func hLLt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I < fr.regs[in.b].I)
	return in.next
}

func hLLe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I <= fr.regs[in.b].I)
	return in.next
}

func hLGt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I > fr.regs[in.b].I)
	return in.next
}

func hLGe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I >= fr.regs[in.b].I)
	return in.next
}

func hDAdd(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.DoubleValue(fr.regs[in.a].D() + fr.regs[in.b].D())
	return in.next
}

func hDSub(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.DoubleValue(fr.regs[in.a].D() - fr.regs[in.b].D())
	return in.next
}

func hDMul(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.DoubleValue(fr.regs[in.a].D() * fr.regs[in.b].D())
	return in.next
}

func hDDiv(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.DoubleValue(fr.regs[in.a].D() / fr.regs[in.b].D())
	return in.next
}

func hDEq(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].D() == fr.regs[in.b].D())
	return in.next
}

func hDNe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].D() != fr.regs[in.b].D())
	return in.next
}

func hDLt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].D() < fr.regs[in.b].D())
	return in.next
}

func hDLe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].D() <= fr.regs[in.b].D())
	return in.next
}

func hDGt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].D() > fr.regs[in.b].D())
	return in.next
}

func hDGe(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].D() >= fr.regs[in.b].D())
	return in.next
}

func hBNot(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I == 0)
	return in.next
}

func hBAnd(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I != 0 && fr.regs[in.b].I != 0)
	return in.next
}

func hBOr(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = rt.BoolValue(fr.regs[in.a].I != 0 || fr.regs[in.b].I != 0)
	return in.next
}
