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

// This file is the closure-threading backend, the third execution
// engine: Compile fuses each PreparedInst of an already-prepared module
// into a pre-bound Go closure (a thunk) that performs the instruction
// and returns the next pc, so the dispatch loop is a bare indirect call
// chain — no opcode switch, no per-step field decoding. Operand
// registers, jump targets, phi-move sets, and exception edges are all
// captured at compile time; hot primitives (int/long/double arithmetic
// and comparisons) are specialized into dedicated closures instead of
// going through the shared evalPrim switch.
//
// Compile runs strictly after Prepare (which runs strictly after the
// verifier) and repeats none of their checks. Prepare is the single gate
// that bounds every register, jump target, move, exception edge, method
// and type id of the lowered form; Compile accepts only a form Prepare
// minted from this very module (see bound) and bakes those indices into
// closures as they stand, trusting them exactly as runPrepared does when
// it executes the same []PreparedInst. A prepared form is read-only, like
// the verified module it came from.
//
// Budget parity is structural: every thunk lowered from an opcode below
// pCtrl calls rt.Env.Step() before any side effect, exactly where
// runPrepared charges, and allocation charges flow through the same
// Env.NewObject/NewArray/Concat entry points — so step kills, alloc
// kills, and interrupts land on the identical instruction in all three
// engines, which the three-way differential oracle checks bit-exactly.
//
// Shared-module invariant: a compiled body, like the prepared function
// it was fused from, is immutable and session-free — thunks never
// capture the Loader or the Env. All mutable state (registers,
// arguments, the caught-exception slot) reaches a thunk through the
// *cframe argument, so one Compiled may back any number of concurrent
// sessions. What a Compiled holds changes only by a slot going from
// empty to filled, once (see Loader.lower).

// cthunk executes one fused instruction and returns the next pc, or a
// negative sentinel to leave the function.
type cthunk func(fr *cframe) int32

// The two ways out of a function body, both with the outcome in fr.ret:
// cDone is what a return thunk yields (fr.ret is the result), cThrow
// what a raise with no local handler yields (fr.ret is the exception).
// A guest exception is a transition of this machine — it unwinds by
// returning cThrow frame by frame, never by a Go panic.
const (
	cDone  = int32(-1)
	cThrow = int32(-2)
)

// CFunc is one compiled function body.
type CFunc struct {
	Name string
	// NumRegs matches the prepared form: slot v holds SSA value v,
	// slot 0 is the void-result scratch register.
	NumRegs int32
	// Frame is what one activation holds of rt.MaxStackSlots.
	Frame int64
	Code  []cthunk
}

// Compiled is the closure-threaded form of a module: a slot per function,
// holding its compiled body once some session has lowered it. Lazy and
// Pulled mint one with every slot empty and Compile one with every slot
// filled; the sessions it backs, any number of them concurrently, fill an
// empty slot the first time one of them calls the function, and a filled
// slot never changes.
type Compiled struct {
	funcs []atomic.Pointer[CFunc] // parallel to Module.Funcs
	// mod is the module this form was minted from (see bound).
	mod *core.Module
	// nFuncs bounds the function indices a lowered call may name.
	nFuncs int
	// pull, when non-nil, is where a first call gets a body mod.Funcs does
	// not hold yet: it admits function fi and returns it, or says why it
	// cannot. Pulls are serialised by mu, and a body reaches the lowering
	// from pull's result, so no session reads mod.Funcs while a pull
	// appends to it.
	pull func(fi int) (*core.Func, error)
	mu   sync.Mutex
}

// Lazy mints mod's compiled form with nothing lowered yet: a session
// lowers a function the first time it is called (Loader.cfunc), so a run
// pays for the functions it calls and a resident unit pays for each
// function once. The slots are sized by the functions mod holds — for an
// admitted module, the bodies that were decoded and verified, not a count
// any input declared.
func Lazy(mod *core.Module) *Compiled {
	return &Compiled{mod: mod, nFuncs: len(mod.Funcs), funcs: make([]atomic.Pointer[CFunc], len(mod.Funcs))}
}

// Pulled is Lazy for a module whose bodies are still behind an admission
// cursor: mod holds the verified tables, pull(fi) admits function fi and
// returns its body, and n is how many functions there are. The form has a
// slot for each, so n must be a count an earlier admission of the whole
// unit proved, never one the input merely declares. The first call of a
// function that any session makes — a fresh one or the clone of a
// Snapshot — pulls it under the form's lock, so all of them pull through
// the one cursor and each body is decoded once. A pull that fails ends
// the calling session with its error, as a lowering refusal does.
func Pulled(mod *core.Module, n int, pull func(fi int) (*core.Func, error)) *Compiled {
	return &Compiled{mod: mod, nFuncs: n, funcs: make([]atomic.Pointer[CFunc], n), pull: pull}
}

// body returns function fi's admitted body for its first lowering.
func (c *Compiled) body(fi int32) (*core.Func, error) {
	if c.pull == nil {
		return c.mod.Funcs[fi], nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pull(int(fi))
}

// cframe is the per-invocation state of one compiled function: the
// session it runs in plus the register file. Thunks receive everything
// session-scoped through here, never through their closures.
type cframe struct {
	l      *Loader
	env    *rt.Env
	regs   []rt.Value
	args   []rt.Value
	caught rt.Value
	ret    rt.Value
}

// craise raises exception value v from a compiled site: into the
// precomputed handler (applying the exception edge's phi moves and
// returning the handler pc) or, with no handler, out of the function as
// cThrow. It serves a site's own raise and an exception a callee
// returned alike.
func (fr *cframe) craise(rs *RaiseSite, v rt.Value) int32 {
	if rs == nil {
		fr.ret = v
		return cThrow
	}
	applyMoves(fr.regs, rs.Moves)
	fr.caught = v
	return rs.Target
}

// from is the module c was minted from; nil for a nil or hand-built form.
func (c *Compiled) from() *core.Module {
	if c == nil {
		return nil
	}
	return c.mod
}

// Compile fuses a prepared module into closure-threaded code, every slot
// filled up front: the eager schedule, for the oracles and for callers
// that time lowering apart from running. prep must be the form Prepare
// minted from mod — any other is rejected. Compile never executes guest
// code.
func Compile(mod *core.Module, prep *Prepared) (*Compiled, error) {
	if err := bound(mod, "prepared", prep.from()); err != nil {
		return nil, err
	}
	c := Lazy(mod)
	for i, pf := range prep.Funcs {
		cf, err := compileFunc(mod.Methods, pf)
		if err != nil {
			return nil, err
		}
		c.funcs[i].Store(cf)
	}
	return c, nil
}

// compileFunc fuses one prepared function body, thunk by thunk: a
// superinstruction where code[pc] starts a pair (fuse.go), else the
// instruction's own thunk, falling through to the threaded pc+1.
func compileFunc(methods []core.MethodRef, pf *PFunc) (*CFunc, error) {
	code := make([]cthunk, len(pf.Code))
	for pc := range pf.Code {
		th := fuse(pf.Code, pc)
		if th == nil {
			var err error
			if th, err = thunk(methods, &pf.Code[pc], threaded(pf.Code, int32(pc+1))); err != nil {
				return nil, fmt.Errorf("interp: compile %s: pc %d: %w", pf.Name, pc, err)
			}
		}
		code[pc] = th
	}
	return &CFunc{Name: pf.Name, NumRegs: pf.NumRegs, Frame: pf.Frame, Code: code}, nil
}

// lowerFunc is the whole lowering of one admitted function, the unit both
// schedules share: Prepare and Compile are loops over its two halves, and
// a session runs both on a function the first time it calls it (see
// Loader.lower), adding what each half took to spent.
func (c *fcomp) lowerFunc(f *core.Func, spent *Lowering) (*CFunc, error) {
	start := time.Now()
	pf, err := c.flatten(f)
	if err != nil {
		return nil, fmt.Errorf("interp: prepare %s: %w", f.Name, err)
	}
	flat := time.Now()
	cf, err := compileFunc(c.mod.Methods, &pf)
	if err != nil {
		return nil, err
	}
	fused := time.Now()
	spent.Funcs++
	spent.Flatten += flat.Sub(start)
	spent.Fuse += fused.Sub(flat)
	return cf, nil
}

// cframePoolCap bounds the per-session free lists: deep recursion grows
// the pool only this far, so a pathological guest cannot pin an
// unbounded number of retired frames.
const cframePoolCap = 64

// frameStock is the frame and argument-buffer free lists a released
// session leaves (Loader.Release) for the next compiled session to adopt
// whole, so a served session's first calls take frames another session
// retired instead of allocating them.
type frameStock struct {
	cfree []*cframe
	afree [][]rt.Value
}

var frameStocks = core.NewStock("interp.frames", maxStockBytes, func() *frameStock { return new(frameStock) })

// adoptStock takes a released session's free lists, once per session, at
// its first activation: every argument buffer is retired by a call made
// inside some activation, so both of the session's own lists are still
// empty here.
func (l *Loader) adoptStock() {
	st := frameStocks.Take()
	l.stock = st
	l.cfree, l.afree = st.cfree, st.afree
	for _, fr := range l.cfree {
		fr.l, fr.env = l, l.Env
	}
}

// getFrame pops a retired invocation frame off the session free list (or
// allocates one on a miss) and resets the caught/ret slots. Within a
// session, recycled register files are deliberately NOT zeroed: the wire
// format encodes every operand as an (l, r) walk up the dominator tree
// and the verifier checks that structural tree against the true
// dominators, so every register the prepared form reads was written
// earlier on that same path — stale slot contents are unobservable. They
// can pin dead references until the slot's next write; the list is
// capped, so that retention is bounded. Across sessions the argument
// does not reach: a frame outlives its session in the stock the next one
// adopts, and the session heap's chunks are recycled, so a stale slot
// would name another session's object. Release therefore clears every
// register file and argument buffer before the stock leaves the session
// — a frame crosses sessions empty — and keeps at most maxStockBytes of
// them, so what one session widened does not pass to every later one.
//
// Every activation passes through here and through putFrame, which is
// what makes them the compiled engine's Enter and Leave: the depth charge
// lands before the frame exists, and a frame the limit refused is never
// taken off the list.
func (l *Loader) getFrame(cf *CFunc) *cframe {
	l.Env.Enter(cf.Frame)
	if len(l.cfree) == 0 && l.stock == nil {
		l.adoptStock()
	}
	numRegs := cf.NumRegs
	if n := len(l.cfree); n > 0 {
		fr := l.cfree[n-1]
		l.cfree = l.cfree[:n-1]
		if int32(cap(fr.regs)) >= numRegs {
			fr.regs = fr.regs[:numRegs]
		} else {
			fr.regs = make([]rt.Value, numRegs)
		}
		fr.caught = rt.Value{}
		fr.ret = rt.Value{}
		return fr
	}
	return &cframe{l: l, env: l.Env, regs: make([]rt.Value, numRegs)}
}

// putFrame retires a frame to the free list. runCompiled retires its
// frame on both exits, return and throw; only a kill (budget, interrupt)
// panics past frames, and those are simply never returned — the GC
// reclaims them — so a recycled frame can never be live in two
// invocations at once.
func (l *Loader) putFrame(fr *cframe, cf *CFunc) {
	l.Env.Leave(cf.Frame)
	if len(l.cfree) < cframePoolCap {
		fr.args = nil
		l.cfree = append(l.cfree, fr)
	}
}

// getArgs pops a call-argument buffer; the caller overwrites every slot
// before the buffer is read, so no clearing is needed.
func (l *Loader) getArgs(n int) []rt.Value {
	if k := len(l.afree); k > 0 {
		buf := l.afree[k-1]
		l.afree = l.afree[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]rt.Value, n)
}

// putArgs retires an argument buffer once the callee has returned or
// thrown. Natives only read argument values during the call (none retain
// the slice), and guest frames release fr.args before being pooled, so
// the buffer cannot be reachable from live execution state.
func (l *Loader) putArgs(buf []rt.Value) {
	if len(l.afree) < cframePoolCap {
		l.afree = append(l.afree, buf)
	}
}

// maxStockBytes bounds the register and argument slots a released
// session's stock carries to the next session, at 24 B a slot. A register
// file only grows while it is recycled, so a guest that calls a wide
// function at each of cframePoolCap nesting levels retires that many
// frames of the wide function's width; a frame or buffer that would take
// the stock past this bound is left to the collector instead, whatever
// the session did. DESIGN.md §9 argues the figure.
const maxStockBytes = 384 << 10

// Rewind clears every register file and argument buffer of the stock and
// keeps them while their slots fit in maxStockBytes, and reports the
// bytes of slots kept. A frame crosses sessions empty, so its poisoned
// form is its cleared one.
func (st *frameStock) Rewind() int {
	held := 0
	fits := func(n int) bool {
		if held+n*slotBytes > maxStockBytes {
			return false
		}
		held += n * slotBytes
		return true
	}
	cfree := st.cfree[:0]
	for _, fr := range st.cfree {
		if fits(cap(fr.regs)) {
			clear(fr.regs[:cap(fr.regs)])
			*fr = cframe{regs: fr.regs[:0]}
			cfree = append(cfree, fr)
		}
	}
	clear(st.cfree[len(cfree):])
	afree := st.afree[:0]
	for _, buf := range st.afree {
		if fits(cap(buf)) {
			clear(buf[:cap(buf)])
			afree = append(afree, buf)
		}
	}
	clear(st.afree[len(afree):])
	st.cfree, st.afree = cfree, afree
	return held
}

// slotBytes is the size of one register or argument slot.
const slotBytes = int(unsafe.Sizeof(rt.Value{}))

// releaseFrames gives the session's free lists back to the stock the next
// compiled session adopts (see getFrame).
func (l *Loader) releaseFrames() {
	st := l.stock
	if st == nil {
		return
	}
	st.cfree, st.afree = l.cfree, l.afree
	l.stock, l.cfree, l.afree = nil, nil, nil
	frameStocks.Give(st)
}

// runCompiled executes one compiled function body: call the thunk at
// pc, go where it says, until one yields cDone or cThrow. thrown reports
// which; the value is the result or the exception accordingly.
func (l *Loader) runCompiled(cf *CFunc, args []rt.Value) (v rt.Value, thrown bool) {
	fr := l.getFrame(cf)
	fr.args = args
	code := cf.Code
	pc := int32(0)
	for pc >= 0 {
		pc = code[pc](fr)
	}
	v = fr.ret
	l.putFrame(fr, cf)
	return v, pc == cThrow
}

// cinvoke runs a resolved callee: compiled function body or native
// method.
func (l *Loader) cinvoke(mr *core.MethodRef, fi int32, args []rt.Value) (v rt.Value, thrown bool) {
	if fi >= 0 {
		return l.runCompiled(l.cfunc(fi), args)
	}
	return l.native(mr, args)
}

// ---------------------------------------------------------------------
// The fusing compiler.

// thunk fuses one prepared instruction into its closure. next is the
// fallthrough pc: the slot after this instruction, or where the
// move-free jumps from there lead (see threaded).
func thunk(methods []core.MethodRef, in *PreparedInst, next int32) (cthunk, error) {
	// The operands exactly as Prepare bounded them; each closure captures
	// (by value) only the ones its opcode uses.
	dst, a, b, cc := in.Dst, in.A, in.B, in.C
	typ, rs := in.Type, in.Raise
	target, mv := in.Target, in.Moves
	switch in.Op {
	case PConst:
		val := in.Val
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = val
			return next
		}, nil

	case PConstStr:
		str := rt.ConstStr(in.Str)
		// A fresh *rt.Str per execution, like the other two engines —
		// reference identity (PREq) must not observe compiled-form
		// sharing.
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.RefValue(fr.env.Fresh(str))
			return next
		}, nil

	case PParam:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.args[a]
			return next
		}, nil

	case PCopy:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.regs[a]
			return next
		}, nil

	case PPrim:
		return compilePrim(in.Prim, dst, a, b, next), nil

	case PXPrim:
		switch in.Prim {
		case core.PIDiv:
			return func(fr *cframe) int32 {
				fr.env.Step()
				bv := fr.regs[b].Int()
				if bv == 0 {
					return fr.craise(rs, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
				}
				fr.regs[dst] = rt.IntValue(rt.IDiv(fr.regs[a].Int(), bv))
				return next
			}, nil
		case core.PIRem:
			return func(fr *cframe) int32 {
				fr.env.Step()
				bv := fr.regs[b].Int()
				if bv == 0 {
					return fr.craise(rs, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
				}
				fr.regs[dst] = rt.IntValue(rt.IRem(fr.regs[a].Int(), bv))
				return next
			}, nil
		case core.PLDiv:
			return func(fr *cframe) int32 {
				fr.env.Step()
				bv := fr.regs[b].I
				if bv == 0 {
					return fr.craise(rs, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
				}
				fr.regs[dst] = rt.LongValue(rt.LDiv(fr.regs[a].I, bv))
				return next
			}, nil
		case core.PLRem:
			return func(fr *cframe) int32 {
				fr.env.Step()
				bv := fr.regs[b].I
				if bv == 0 {
					return fr.craise(rs, fr.l.newExc(fr.l.exc.Arith, "/ by zero"))
				}
				fr.regs[dst] = rt.LongValue(rt.LRem(fr.regs[a].I, bv))
				return next
			}, nil
		}
		return nil, fmt.Errorf("primitive %s is not a trapping division", in.Prim)

	case PNullCheck:
		return func(fr *cframe) int32 {
			fr.env.Step()
			v := fr.regs[a]
			if v.R == nil {
				return fr.craise(rs, fr.l.newExc(fr.l.exc.NPE, "null dereference"))
			}
			fr.regs[dst] = v
			return next
		}, nil

	case PIndexCheck:
		return func(fr *cframe) int32 {
			fr.env.Step()
			arr := fr.regs[a].R.(*rt.Array)
			idx := fr.regs[b].Int()
			if idx < 0 || int(idx) >= len(arr.Elems) {
				return fr.craise(rs, fr.l.boundsExc(idx, len(arr.Elems)))
			}
			fr.regs[dst] = rt.IntValue(idx)
			return next
		}, nil

	case PUpcast:
		return func(fr *cframe) int32 {
			fr.env.Step()
			v := fr.regs[a]
			if v.R != nil && !fr.l.isInstance(v.R, typ) {
				return fr.craise(rs, fr.l.castExc(typ))
			}
			fr.regs[dst] = v
			return next
		}, nil

	case PInstanceOf:
		return func(fr *cframe) int32 {
			fr.env.Step()
			v := fr.regs[a]
			fr.regs[dst] = rt.BoolValue(v.R != nil && fr.l.isInstance(v.R, typ))
			return next
		}, nil

	case PGetField:
		slot := in.B
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.regs[a].R.(*rt.Object).Fields[slot]
			return next
		}, nil

	case PSetField:
		slot := in.B
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[a].R.(*rt.Object).Fields[slot] = fr.regs[cc]
			return next
		}, nil

	case PGetStatic:
		slot := in.B
		// Statics are per-session storage, so the ClassInfo lookup must
		// go through the frame's Loader rather than be pre-bound.
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.l.classes[typ].Statics[slot]
			return next
		}, nil

	case PSetStatic:
		slot := in.B
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.l.classes[typ].Statics[slot] = fr.regs[a]
			return next
		}, nil

	case PGetElt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			arr := fr.regs[a].R.(*rt.Array)
			fr.regs[dst] = arr.Elems[fr.regs[b].Int()]
			return next
		}, nil

	case PSetElt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			arr := fr.regs[a].R.(*rt.Array)
			arr.Elems[fr.regs[b].Int()] = fr.regs[cc]
			return next
		}, nil

	case PArrayLen:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(int32(len(fr.regs[a].R.(*rt.Array).Elems)))
			return next
		}, nil

	case PNew:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.RefValue(fr.env.NewObject(fr.l.classes[typ]))
			return next
		}, nil

	case PNewArray:
		return func(fr *cframe) int32 {
			fr.env.Step()
			n := fr.regs[a].Int()
			if n < 0 {
				return fr.craise(rs, fr.l.negSizeExc(n))
			}
			fr.regs[dst] = rt.RefValue(fr.env.NewArray(n, int32(typ)))
			return next
		}, nil

	case PCall, PDispatch:
		return callThunk(methods, in, next), nil

	case PCatch:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.caught
			return next
		}, nil

	case PLoopStep:
		// The whole instruction is the step charge: one unit of budget
		// per loop iteration, same point as the other two engines.
		return func(fr *cframe) int32 {
			fr.env.Step()
			return next
		}, nil

	case PJump:
		switch len(mv) {
		case 0:
			return func(fr *cframe) int32 { return target }, nil
		case 1:
			d, s := mv[0].Dst, mv[0].Src
			return func(fr *cframe) int32 {
				fr.regs[d] = fr.regs[s]
				return target
			}, nil
		}
		return func(fr *cframe) int32 {
			applyMoves(fr.regs, mv)
			return target
		}, nil

	case PBranchFalse:
		switch len(mv) {
		case 0:
			return func(fr *cframe) int32 {
				if fr.regs[a].I == 0 {
					return target
				}
				return next
			}, nil
		case 1:
			d, s := mv[0].Dst, mv[0].Src
			return func(fr *cframe) int32 {
				if fr.regs[a].I == 0 {
					fr.regs[d] = fr.regs[s]
					return target
				}
				return next
			}, nil
		}
		return func(fr *cframe) int32 {
			if fr.regs[a].I == 0 {
				applyMoves(fr.regs, mv)
				return target
			}
			return next
		}, nil

	case PMoves:
		if len(mv) == 1 {
			d, s := mv[0].Dst, mv[0].Src
			return func(fr *cframe) int32 {
				fr.regs[d] = fr.regs[s]
				return next
			}, nil
		}
		return func(fr *cframe) int32 {
			applyMoves(fr.regs, mv)
			return next
		}, nil

	case PReturn:
		return func(fr *cframe) int32 {
			fr.ret = rt.Value{}
			return cDone
		}, nil

	case PReturnVal:
		return func(fr *cframe) int32 {
			fr.ret = fr.regs[a]
			return cDone
		}, nil

	case PThrow:
		return func(fr *cframe) int32 {
			v := fr.regs[a]
			if v.R == nil {
				v = fr.l.newExc(fr.l.exc.NPE, "throw of null")
			}
			return fr.craise(rs, v)
		}, nil
	}
	return nil, fmt.Errorf("unhandled prepared opcode %s", in.Op)
}

// callThunk fuses a PCall/PDispatch. The static MethodRef is pre-bound
// (the module is immutable); dispatch re-resolves through the
// receiver's vtable exactly like pcall.
//
// Not inlined into thunk on purpose: thunk is past the compiler's
// big-function threshold, and a closure built by an inlined copy there
// is compiled with Step, getArgs and putArgs as real calls — on every
// guest call.
//
//go:noinline
func callThunk(methods []core.MethodRef, in *PreparedInst, next int32) cthunk {
	dst, argRegs, rs := in.Dst, in.Args, in.Raise
	base := &methods[in.A]
	staticFi := in.B
	dispatch := in.Op == PDispatch
	return func(fr *cframe) int32 {
		fr.env.Step()
		mr := base
		args := fr.l.getArgs(len(argRegs))
		for i, r := range argRegs {
			args[i] = fr.regs[r]
		}
		fi := staticFi
		if dispatch {
			// Polymorphic association through the dispatch-table slot.
			// Host-implemented receivers (strings) bind statically.
			if recv, ok := args[0].R.(*rt.Object); ok && int(mr.VSlot) < len(recv.Class.VTable) {
				mr = &methods[recv.Class.VTable[mr.VSlot]]
			}
			fi = mr.FuncIdx
		}
		out, thrown := fr.l.cinvoke(mr, fi, args)
		fr.l.putArgs(args)
		if thrown {
			return fr.craise(rs, out)
		}
		fr.regs[dst] = out
		return next
	}
}

// compilePrim specializes the hot primitives — int/long/double
// arithmetic and comparisons, the ops that dominate corpus run time —
// into dedicated closures; everything else (string building, math
// intrinsics, the rare conversions) falls back to the shared evalPrim
// switch, so the engines cannot drift on the long tail.
func compilePrim(p core.PrimOp, dst, a, b, next int32) cthunk {
	switch p {
	case core.PIAdd:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() + fr.regs[b].Int())
			return next
		}
	case core.PISub:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() - fr.regs[b].Int())
			return next
		}
	case core.PIMul:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() * fr.regs[b].Int())
			return next
		}
	case core.PINeg:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(-fr.regs[a].Int())
			return next
		}
	case core.PIAnd:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() & fr.regs[b].Int())
			return next
		}
	case core.PIOr:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() | fr.regs[b].Int())
			return next
		}
	case core.PIXor:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() ^ fr.regs[b].Int())
			return next
		}
	case core.PIShl:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() << (uint32(fr.regs[b].Int()) & 31))
			return next
		}
	case core.PIShr:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(fr.regs[a].Int() >> (uint32(fr.regs[b].Int()) & 31))
			return next
		}
	case core.PIEq:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].Int() == fr.regs[b].Int())
			return next
		}
	case core.PINe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].Int() != fr.regs[b].Int())
			return next
		}
	case core.PILt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].Int() < fr.regs[b].Int())
			return next
		}
	case core.PILe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].Int() <= fr.regs[b].Int())
			return next
		}
	case core.PIGt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].Int() > fr.regs[b].Int())
			return next
		}
	case core.PIGe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].Int() >= fr.regs[b].Int())
			return next
		}
	case core.PI2L:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.LongValue(int64(fr.regs[a].Int()))
			return next
		}
	case core.PI2D:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(float64(fr.regs[a].Int()))
			return next
		}

	case core.PLAdd:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.LongValue(fr.regs[a].I + fr.regs[b].I)
			return next
		}
	case core.PLSub:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.LongValue(fr.regs[a].I - fr.regs[b].I)
			return next
		}
	case core.PLMul:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.LongValue(fr.regs[a].I * fr.regs[b].I)
			return next
		}
	case core.PLEq:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I == fr.regs[b].I)
			return next
		}
	case core.PLNe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I != fr.regs[b].I)
			return next
		}
	case core.PLLt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I < fr.regs[b].I)
			return next
		}
	case core.PLLe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I <= fr.regs[b].I)
			return next
		}
	case core.PLGt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I > fr.regs[b].I)
			return next
		}
	case core.PLGe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I >= fr.regs[b].I)
			return next
		}

	case core.PDAdd:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D() + fr.regs[b].D())
			return next
		}
	case core.PDSub:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D() - fr.regs[b].D())
			return next
		}
	case core.PDMul:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D() * fr.regs[b].D())
			return next
		}
	case core.PDDiv:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D() / fr.regs[b].D())
			return next
		}
	case core.PDEq:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D() == fr.regs[b].D())
			return next
		}
	case core.PDNe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D() != fr.regs[b].D())
			return next
		}
	case core.PDLt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D() < fr.regs[b].D())
			return next
		}
	case core.PDLe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D() <= fr.regs[b].D())
			return next
		}
	case core.PDGt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D() > fr.regs[b].D())
			return next
		}
	case core.PDGe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D() >= fr.regs[b].D())
			return next
		}

	case core.PBNot:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I == 0)
			return next
		}
	case core.PBAnd:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I != 0 && fr.regs[b].I != 0)
			return next
		}
	case core.PBOr:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].I != 0 || fr.regs[b].I != 0)
			return next
		}
	}
	// Long tail: string building, math intrinsics, conversions, reference
	// equality — evaluated by the shared switch so all engines agree.
	return func(fr *cframe) int32 {
		fr.env.Step()
		fr.regs[dst] = fr.l.evalPrim(p, fr.regs[a], fr.regs[b])
		return next
	}
}
