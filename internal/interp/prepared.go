package interp

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the execution half of the prepared engine: a flat
// register machine over the []PreparedInst form built by Prepare. It
// shares the Loader's class metadata, exception classes, native-method
// table, and primitive evaluator with the reference CST walker, and
// runs under the same rt.Env budgets — every opcode below pCtrl charges
// exactly one step, mirroring the reference evaluator's one step per
// straight-line instruction plus one per loop iteration.

// applyMoves performs the phi writes of one edge. Prepare sequenced them
// (see sequence), so one at a time, in order, is their parallel meaning.
func applyMoves(regs []rt.Value, mv []Move) {
	for _, m := range mv {
		regs[m.Dst] = regs[m.Src]
	}
}

// praise raises exception value v from a prepared site: into the
// precomputed handler (applying the exception edge's phi moves and
// returning the handler pc) or out of the function as rt.Thrown.
func (l *Loader) praise(regs []rt.Value, caught *rt.Value, rs *RaiseSite, v rt.Value) int32 {
	if rs == nil {
		l.Env.Throw(rt.Thrown{Val: v}) // does not return
	}
	applyMoves(regs, rs.Moves)
	*caught = v
	return rs.Target
}

// pinvoke runs a resolved callee: prepared function body or native
// method.
func (l *Loader) pinvoke(mr *core.MethodRef, fi int32, args []rt.Value) rt.Value {
	if fi >= 0 {
		return l.runPrepared(l.prep.Funcs[fi], args)
	}
	return l.nativeOrPanic(mr, args)
}

// nativeOrPanic is native for this engine, which unwinds a guest
// exception as rt.Thrown.
func (l *Loader) nativeOrPanic(mr *core.MethodRef, args []rt.Value) rt.Value {
	v, thrown := l.native(mr, args)
	if thrown {
		l.Env.Throw(rt.Thrown{Val: v})
	}
	return v
}

// pcallProtected is pinvoke under a handler: an uncaught callee
// exception is intercepted instead of unwinding this frame.
func (l *Loader) pcallProtected(mr *core.MethodRef, fi int32, args []rt.Value) (out rt.Value, thrown rt.Value, caught bool) {
	live := l.Env.StackSlots()
	defer func() {
		// Recover only a callee's exception; a kill passes through (see
		// rt.Env.Throw).
		t, ok := l.Env.InFlight().(rt.Thrown)
		if !ok {
			return
		}
		recover()
		l.Env.Unwind(live)
		thrown, caught = t.Val, true
	}()
	out = l.pinvoke(mr, fi, args)
	return out, thrown, false
}

// pcall executes a PCall/PDispatch instruction. It reports the handler
// pc and true when the callee raised into this site's handler.
func (l *Loader) pcall(regs []rt.Value, caught *rt.Value, in *PreparedInst) (int32, bool) {
	mr := &l.Mod.Methods[in.A]
	args := make([]rt.Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = regs[r]
	}
	fi := in.B
	if in.Op == PDispatch {
		// Polymorphic association through the dispatch-table slot.
		// Host-implemented receivers (strings) bind statically.
		if recv, ok := args[0].R.(*rt.Object); ok && int(mr.VSlot) < len(recv.Class.VTable) {
			mr = &l.Mod.Methods[recv.Class.VTable[mr.VSlot]]
		}
		fi = mr.FuncIdx
	}
	if in.Raise == nil {
		regs[in.Dst] = l.pinvoke(mr, fi, args)
		return 0, false
	}
	out, thrown, wasCaught := l.pcallProtected(mr, fi, args)
	if wasCaught {
		return l.praise(regs, caught, in.Raise, thrown), true
	}
	regs[in.Dst] = out
	return 0, false
}

// runPrepared executes one prepared function body.
func (l *Loader) runPrepared(pf *PFunc, args []rt.Value) rt.Value {
	env := l.Env
	env.Enter(pf.Frame)
	regs := make([]rt.Value, pf.NumRegs)
	var caught rt.Value
	code := pf.Code
	pc := int32(0)
	for {
		in := &code[pc]
		if in.Op < pCtrl {
			env.Step()
		}
		switch in.Op {
		case PConst:
			regs[in.Dst] = in.Val
		case PConstStr:
			// A fresh *rt.Str per execution, like the reference
			// evaluator's OpConst — reference identity (PREq) must not
			// observe prepared-form sharing.
			regs[in.Dst] = rt.RefValue(env.Str(in.Str))
		case PParam:
			regs[in.Dst] = args[in.A]
		case PCopy:
			regs[in.Dst] = regs[in.A]
		case PPrim:
			regs[in.Dst] = l.evalPrim(in.Prim, regs[in.A], regs[in.B])
		case PXPrim:
			av, bv := regs[in.A], regs[in.B]
			var zero bool
			switch in.Prim {
			case core.PIDiv, core.PIRem:
				zero = bv.Int() == 0
			default: // PLDiv, PLRem
				zero = bv.I == 0
			}
			if zero {
				pc = l.praise(regs, &caught, in.Raise, l.newExc(l.exc.Arith, "/ by zero"))
				continue
			}
			regs[in.Dst] = l.evalPrim(in.Prim, av, bv)
		case PNullCheck:
			v := regs[in.A]
			if v.R == nil {
				pc = l.praise(regs, &caught, in.Raise, l.newExc(l.exc.NPE, "null dereference"))
				continue
			}
			regs[in.Dst] = v
		case PIndexCheck:
			arr := regs[in.A].R.(*rt.Array)
			idx := regs[in.B].Int()
			if idx < 0 || int(idx) >= len(arr.Elems) {
				pc = l.praise(regs, &caught, in.Raise, l.boundsExc(idx, len(arr.Elems)))
				continue
			}
			regs[in.Dst] = rt.IntValue(idx)
		case PUpcast:
			v := regs[in.A]
			if v.R != nil && !l.isInstance(v.R, in.Type) {
				pc = l.praise(regs, &caught, in.Raise, l.castExc(in.Type))
				continue
			}
			regs[in.Dst] = v
		case PInstanceOf:
			v := regs[in.A]
			regs[in.Dst] = rt.BoolValue(v.R != nil && l.isInstance(v.R, in.Type))
		case PGetField:
			regs[in.Dst] = regs[in.A].R.(*rt.Object).Fields[in.B]
		case PSetField:
			regs[in.A].R.(*rt.Object).Fields[in.B] = regs[in.C]
		case PGetStatic:
			regs[in.Dst] = l.classes[in.Type].Statics[in.B]
		case PSetStatic:
			l.classes[in.Type].Statics[in.B] = regs[in.A]
		case PGetElt:
			arr := regs[in.A].R.(*rt.Array)
			regs[in.Dst] = arr.Elems[regs[in.B].Int()]
		case PSetElt:
			arr := regs[in.A].R.(*rt.Array)
			arr.Elems[regs[in.B].Int()] = regs[in.C]
		case PArrayLen:
			regs[in.Dst] = rt.IntValue(int32(len(regs[in.A].R.(*rt.Array).Elems)))
		case PNew:
			regs[in.Dst] = rt.RefValue(env.NewObject(l.classes[in.Type]))
		case PNewArray:
			n := regs[in.A].Int()
			if n < 0 {
				pc = l.praise(regs, &caught, in.Raise, l.negSizeExc(n))
				continue
			}
			regs[in.Dst] = rt.RefValue(env.NewArray(n, int32(in.Type)))
		case PCall, PDispatch:
			if target, jumped := l.pcall(regs, &caught, in); jumped {
				pc = target
				continue
			}
		case PCatch:
			regs[in.Dst] = caught
		case PLoopStep:
			// The step charge above is the whole instruction: one unit
			// of budget per loop iteration, same as the reference
			// evaluator's charge at the top of CWhile/CDoWhile.
		case PJump:
			applyMoves(regs, in.Moves)
			pc = in.Target
			continue
		case PBranchFalse:
			if !regs[in.A].Bool() {
				applyMoves(regs, in.Moves)
				pc = in.Target
				continue
			}
		case PMoves:
			applyMoves(regs, in.Moves)
		case PReturn:
			env.Leave(pf.Frame)
			return rt.Value{}
		case PReturnVal:
			env.Leave(pf.Frame)
			return regs[in.A]
		case PThrow:
			v := regs[in.A]
			if v.R == nil {
				v = l.newExc(l.exc.NPE, "throw of null")
			}
			pc = l.praise(regs, &caught, in.Raise, v)
			continue
		default:
			panic(fmt.Sprintf("interp: unhandled prepared opcode %s", in.Op))
		}
		pc++
	}
}
