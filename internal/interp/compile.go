package interp

import (
	"fmt"

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
// verifier) and repeats no verification: the prepared form is already a
// faithful lowering of a verified module, and re-checking it would buy
// nothing — the thunks trust the same invariants runPrepared trusts.
// Like Prepare, however, Compile bounds-checks every table index it
// bakes into a closure (registers, jump targets, methods, types),
// returning an error — never panicking — on a reference only a
// hand-built or corrupted prepared form could contain.
//
// Budget parity is structural: every thunk lowered from an opcode below
// pCtrl calls rt.Env.Step() before any side effect, exactly where
// runPrepared charges, and allocation charges flow through the same
// Env.NewObject/NewArray/Concat entry points — so step kills, alloc
// kills, and interrupts land on the identical instruction in all three
// engines, which the three-way differential oracle checks bit-exactly.
//
// Shared-module invariant: a Compiled, like the Prepared it was built
// from, is immutable and session-free — thunks never capture the
// Loader or the Env. All mutable state (registers, arguments, the
// caught-exception slot) reaches a thunk through the *cframe argument,
// so one Compiled may back any number of concurrent sessions.

// cthunk executes one fused instruction and returns the next pc, or
// cDone to leave the function.
type cthunk func(fr *cframe) int32

// cDone is the pc sentinel a return thunk yields to stop the dispatch
// loop.
const cDone = int32(-1)

// CFunc is one compiled function body.
type CFunc struct {
	Name string
	// NumRegs matches the prepared form: slot v holds SSA value v,
	// slot 0 is the void-result scratch register.
	NumRegs int32
	Code    []cthunk
}

// Compiled is the closure-threaded form of a module. It is immutable
// after Compile returns and may be shared by any number of concurrent
// execution sessions.
type Compiled struct {
	Funcs []*CFunc // parallel to Module.Funcs
	// Insts is the total fused thunk count (for diagnostics and cache
	// accounting).
	Insts int
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
// returning the handler pc) or out of the function as rt.Thrown — the
// closure-threaded mirror of praise.
func (fr *cframe) craise(rs *RaiseSite, v rt.Value) int32 {
	if rs == nil {
		panic(rt.Thrown{Val: v})
	}
	applyMoves(fr.regs, rs.Moves)
	fr.caught = v
	return rs.Target
}

// Compile fuses a prepared module into closure-threaded code. prep must
// have been built by Prepare from mod; Compile never executes guest
// code and never panics — a prepared form whose embedded references do
// not resolve yields an error.
func Compile(mod *core.Module, prep *Prepared) (*Compiled, error) {
	if prep == nil || len(prep.Funcs) != len(mod.Funcs) {
		return nil, fmt.Errorf("interp: prepared form does not match module")
	}
	c := &Compiled{Funcs: make([]*CFunc, len(prep.Funcs))}
	for i, pf := range prep.Funcs {
		cf, err := compileFunc(mod, pf)
		if err != nil {
			return nil, fmt.Errorf("interp: compile %s: %w", pf.Name, err)
		}
		c.Funcs[i] = cf
		c.Insts += len(cf.Code)
	}
	return c, nil
}

// LoadTrustedCompiled is LoadTrusted for a session that executes the
// closure-threaded form: same link checks, class metadata, and static
// initializers, but every function body (the initializers included)
// runs through the thunk chains. comp must have been built by Compile
// from this exact module; like the module, it is read-only and may back
// any number of concurrent sessions.
func LoadTrustedCompiled(mod *core.Module, comp *Compiled, env *rt.Env) (*Loader, error) {
	if comp == nil || len(comp.Funcs) != len(mod.Funcs) {
		return nil, fmt.Errorf("interp: compiled form does not match module")
	}
	l, err := loadCommon(mod, env)
	if err != nil {
		return nil, err
	}
	l.comp = comp
	if err := l.RunStaticInit(); err != nil {
		return nil, err
	}
	return l, nil
}

// cframePoolCap bounds the per-session free lists: deep recursion grows
// the pool only this far, so a pathological guest cannot pin an
// unbounded number of retired frames.
const cframePoolCap = 64

// getFrame pops a retired invocation frame off the session free list (or
// allocates one on a miss) and resets the caught/ret slots. Recycled
// register files are deliberately NOT zeroed: the wire format encodes
// every operand as an (l, r) walk up the dominator tree and the verifier
// checks that structural tree against the true dominators, so every
// register the prepared form reads was written earlier on that same path
// — stale slot contents are unobservable. (They can pin dead references
// until the slot's next write, but the pool is per-session and capped,
// so the retention is bounded and dies with the session.)
func (l *Loader) getFrame(numRegs int32) *cframe {
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

// putFrame retires a frame to the free list. Frames abandoned by a
// panicking unwind (rt.Thrown, budget kills) are simply never returned —
// the GC reclaims them — so a recycled frame can never be live in two
// invocations at once.
func (l *Loader) putFrame(fr *cframe) {
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

// putArgs retires an argument buffer once the callee has returned.
// Natives only read argument values during the call (none retain the
// slice), and guest frames release fr.args before being pooled, so the
// buffer cannot be reachable from live execution state.
func (l *Loader) putArgs(buf []rt.Value) {
	if len(l.afree) < cframePoolCap {
		l.afree = append(l.afree, buf)
	}
}

// runCompiled executes one compiled function body: call the thunk at
// pc, go where it says, until a return thunk yields cDone.
func (l *Loader) runCompiled(cf *CFunc, args []rt.Value) rt.Value {
	fr := l.getFrame(cf.NumRegs)
	fr.args = args
	code := cf.Code
	for pc := int32(0); pc >= 0; {
		pc = code[pc](fr)
	}
	ret := fr.ret
	l.putFrame(fr)
	return ret
}

// cinvoke runs a resolved callee: compiled function body or native
// method.
func (l *Loader) cinvoke(mr *core.MethodRef, fi int32, args []rt.Value) rt.Value {
	if fi >= 0 {
		return l.runCompiled(l.comp.Funcs[fi], args)
	}
	return l.native(mr, args)
}

// ccallProtected is cinvoke under a handler: an uncaught callee
// exception is intercepted instead of unwinding this frame.
func (l *Loader) ccallProtected(mr *core.MethodRef, fi int32, args []rt.Value) (out rt.Value, thrown rt.Value, caught bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		t, ok := r.(rt.Thrown)
		if !ok {
			panic(r)
		}
		thrown, caught = t.Val, true
	}()
	out = l.cinvoke(mr, fi, args)
	return out, thrown, false
}

// ---------------------------------------------------------------------
// The fusing compiler.

// ccomp validates prepared-form references while lowering one function.
type ccomp struct {
	mod *core.Module
	pf  *PFunc
}

func compileFunc(mod *core.Module, pf *PFunc) (*CFunc, error) {
	c := &ccomp{mod: mod, pf: pf}
	code := make([]cthunk, len(pf.Code))
	for i := range pf.Code {
		th, err := c.thunk(&pf.Code[i], int32(i+1))
		if err != nil {
			return nil, fmt.Errorf("pc %d (%s): %w", i, pf.Code[i].Op, err)
		}
		code[i] = th
	}
	return &CFunc{Name: pf.Name, NumRegs: pf.NumRegs, Code: code}, nil
}

// reg validates a register index against the function's register file.
func (c *ccomp) reg(r int32) (int32, error) {
	if r < 0 || r >= c.pf.NumRegs {
		return 0, fmt.Errorf("register r%d out of range (%d registers)", r, c.pf.NumRegs)
	}
	return r, nil
}

// target validates a jump destination. The prepared form always ends in
// a PReturn, so every legal target is a real instruction index.
func (c *ccomp) target(t int32) (int32, error) {
	if t < 0 || int(t) >= len(c.pf.Code) {
		return 0, fmt.Errorf("jump target %d out of range (%d instructions)", t, len(c.pf.Code))
	}
	return t, nil
}

func (c *ccomp) moves(mv []Move) ([]Move, error) {
	for _, m := range mv {
		if _, err := c.reg(m.Dst); err != nil {
			return nil, err
		}
		if _, err := c.reg(m.Src); err != nil {
			return nil, err
		}
	}
	return mv, nil
}

// raise validates an exception edge; a nil site (exception leaves the
// function) stays nil.
func (c *ccomp) raise(rs *RaiseSite) (*RaiseSite, error) {
	if rs == nil {
		return nil, nil
	}
	if _, err := c.target(rs.Target); err != nil {
		return nil, fmt.Errorf("exception edge: %w", err)
	}
	if _, err := c.moves(rs.Moves); err != nil {
		return nil, fmt.Errorf("exception edge: %w", err)
	}
	return rs, nil
}

func (c *ccomp) typeArg(t core.TypeID) (core.TypeID, error) {
	if c.mod.Types.Get(t) == nil {
		return 0, fmt.Errorf("type id %d out of range", t)
	}
	return t, nil
}

// thunk fuses one prepared instruction into its closure. next is the
// fallthrough pc (the slot after this instruction).
func (c *ccomp) thunk(in *PreparedInst, next int32) (cthunk, error) {
	switch in.Op {
	case PConst:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		val := in.Val
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = val
			return next
		}, nil

	case PConstStr:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		str := in.Str
		// A fresh *rt.Str per execution, like the other two engines —
		// reference identity (PREq) must not observe compiled-form
		// sharing.
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.RefValue(&rt.Str{S: str})
			return next
		}, nil

	case PParam:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a := in.A // validated against the argument slice at runtime by construction: Prepare bounds Aux to the param list
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.args[a]
			return next
		}, nil

	case PCopy:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.regs[a]
			return next
		}, nil

	case PPrim:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		b, err := c.reg(in.B)
		if err != nil {
			return nil, err
		}
		return compilePrim(in.Prim, dst, a, b, next), nil

	case PXPrim:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		b, err := c.reg(in.B)
		if err != nil {
			return nil, err
		}
		rs, err := c.raise(in.Raise)
		if err != nil {
			return nil, err
		}
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
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		rs, err := c.raise(in.Raise)
		if err != nil {
			return nil, err
		}
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
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		b, err := c.reg(in.B)
		if err != nil {
			return nil, err
		}
		rs, err := c.raise(in.Raise)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			arr := fr.regs[a].R.(*rt.Array)
			idx := fr.regs[b].Int()
			if idx < 0 || int(idx) >= len(arr.Elems) {
				return fr.craise(rs, fr.l.newExc(fr.l.exc.Bounds,
					fmt.Sprintf("index %d out of bounds for length %d", idx, len(arr.Elems))))
			}
			fr.regs[dst] = rt.IntValue(idx)
			return next
		}, nil

	case PUpcast:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		typ, err := c.typeArg(in.Type)
		if err != nil {
			return nil, err
		}
		rs, err := c.raise(in.Raise)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			v := fr.regs[a]
			if v.R != nil && !fr.l.isInstance(v.R, typ) {
				return fr.craise(rs, fr.l.newExc(fr.l.exc.Cast,
					"cannot cast to "+fr.l.Mod.Types.Describe(typ)))
			}
			fr.regs[dst] = v
			return next
		}, nil

	case PInstanceOf:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		typ, err := c.typeArg(in.Type)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			v := fr.regs[a]
			fr.regs[dst] = rt.BoolValue(v.R != nil && fr.l.isInstance(v.R, typ))
			return next
		}, nil

	case PGetField:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		slot := in.B
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.regs[a].R.(*rt.Object).Fields[slot]
			return next
		}, nil

	case PSetField:
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		cc, err := c.reg(in.C)
		if err != nil {
			return nil, err
		}
		slot := in.B
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[a].R.(*rt.Object).Fields[slot] = fr.regs[cc]
			return next
		}, nil

	case PGetStatic:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		typ, err := c.typeArg(in.Type)
		if err != nil {
			return nil, err
		}
		slot := in.B
		// Statics are per-session storage, so the ClassInfo lookup must
		// go through the frame's Loader rather than be pre-bound.
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = fr.l.classes[typ].Statics[slot]
			return next
		}, nil

	case PSetStatic:
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		typ, err := c.typeArg(in.Type)
		if err != nil {
			return nil, err
		}
		slot := in.B
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.l.classes[typ].Statics[slot] = fr.regs[a]
			return next
		}, nil

	case PGetElt:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		b, err := c.reg(in.B)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			arr := fr.regs[a].R.(*rt.Array)
			fr.regs[dst] = arr.Elems[fr.regs[b].Int()]
			return next
		}, nil

	case PSetElt:
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		b, err := c.reg(in.B)
		if err != nil {
			return nil, err
		}
		cc, err := c.reg(in.C)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			arr := fr.regs[a].R.(*rt.Array)
			arr.Elems[fr.regs[b].Int()] = fr.regs[cc]
			return next
		}, nil

	case PArrayLen:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.IntValue(int32(len(fr.regs[a].R.(*rt.Array).Elems)))
			return next
		}, nil

	case PNew:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		typ, err := c.typeArg(in.Type)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.RefValue(fr.env.NewObject(fr.l.classes[typ]))
			return next
		}, nil

	case PNewArray:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		typ, err := c.typeArg(in.Type)
		if err != nil {
			return nil, err
		}
		rs, err := c.raise(in.Raise)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.env.Step()
			n := fr.regs[a].Int()
			if n < 0 {
				return fr.craise(rs, fr.l.newExc(fr.l.exc.NegSize, fmt.Sprintf("%d", n)))
			}
			fr.regs[dst] = rt.RefValue(fr.env.NewArray(n, int32(typ)))
			return next
		}, nil

	case PCall, PDispatch:
		return c.callThunk(in, next)

	case PCatch:
		dst, err := c.reg(in.Dst)
		if err != nil {
			return nil, err
		}
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
		target, err := c.target(in.Target)
		if err != nil {
			return nil, err
		}
		mv, err := c.moves(in.Moves)
		if err != nil {
			return nil, err
		}
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
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		target, err := c.target(in.Target)
		if err != nil {
			return nil, err
		}
		mv, err := c.moves(in.Moves)
		if err != nil {
			return nil, err
		}
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
		mv, err := c.moves(in.Moves)
		if err != nil {
			return nil, err
		}
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
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		return func(fr *cframe) int32 {
			fr.ret = fr.regs[a]
			return cDone
		}, nil

	case PThrow:
		a, err := c.reg(in.A)
		if err != nil {
			return nil, err
		}
		rs, err := c.raise(in.Raise)
		if err != nil {
			return nil, err
		}
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
func (c *ccomp) callThunk(in *PreparedInst, next int32) (cthunk, error) {
	if in.A < 0 || int(in.A) >= len(c.mod.Methods) {
		return nil, fmt.Errorf("method index %d out of range", in.A)
	}
	if in.Op == PCall && in.B >= 0 && int(in.B) >= len(c.mod.Funcs) {
		return nil, fmt.Errorf("function index %d out of range", in.B)
	}
	dst, err := c.reg(in.Dst)
	if err != nil {
		return nil, err
	}
	argRegs := in.Args
	for _, r := range argRegs {
		if _, err := c.reg(r); err != nil {
			return nil, err
		}
	}
	rs, err := c.raise(in.Raise)
	if err != nil {
		return nil, err
	}
	methods := c.mod.Methods
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
		if rs == nil {
			out := fr.l.cinvoke(mr, fi, args)
			fr.l.putArgs(args)
			fr.regs[dst] = out
			return next
		}
		out, thrown, caught := fr.l.ccallProtected(mr, fi, args)
		fr.l.putArgs(args)
		if caught {
			return fr.craise(rs, thrown)
		}
		fr.regs[dst] = out
		return next
	}, nil
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
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D + fr.regs[b].D)
			return next
		}
	case core.PDSub:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D - fr.regs[b].D)
			return next
		}
	case core.PDMul:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D * fr.regs[b].D)
			return next
		}
	case core.PDDiv:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.DoubleValue(fr.regs[a].D / fr.regs[b].D)
			return next
		}
	case core.PDEq:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D == fr.regs[b].D)
			return next
		}
	case core.PDNe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D != fr.regs[b].D)
			return next
		}
	case core.PDLt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D < fr.regs[b].D)
			return next
		}
	case core.PDLe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D <= fr.regs[b].D)
			return next
		}
	case core.PDGt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D > fr.regs[b].D)
			return next
		}
	case core.PDGe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[dst] = rt.BoolValue(fr.regs[a].D >= fr.regs[b].D)
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
