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

// noHandler is the pc praise yields for a raise with no handler in its
// function: the exception leaves the activation, which returns it with
// thrown set.
const noHandler = -1

// praise raises exception value v from a prepared site: into the
// precomputed handler (applying the exception edge's phi moves and
// returning the handler pc) or, with none, out of the function (noHandler).
// Either way *caught is v. It serves a site's own raise and an exception
// a callee returned alike.
func praise(regs []rt.Value, caught *rt.Value, rs *RaiseSite, v rt.Value) int32 {
	*caught = v
	if rs == nil {
		return noHandler
	}
	applyMoves(regs, rs.Moves)
	return rs.Target
}

// pinvoke runs a PCall/PDispatch instruction's callee, resolved through
// the receiver's dispatch table for PDispatch: prepared function body or
// native method. thrown reports whether v is the exception it raised.
func (l *Loader) pinvoke(regs []rt.Value, in *PreparedInst) (v rt.Value, thrown bool) {
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
	if fi >= 0 {
		return l.runPrepared(l.prep.Funcs[fi], args)
	}
	return l.native(mr, args)
}

// runPrepared executes one prepared function body. thrown reports
// whether v is its result or the exception that left it.
func (l *Loader) runPrepared(pf *PFunc, args []rt.Value) (v rt.Value, thrown bool) {
	env := l.Env
	env.Enter(pf.Frame)
	regs := make([]rt.Value, pf.NumRegs)
	var caught rt.Value
	code := pf.Code
	pc := int32(0)
	for pc >= 0 {
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
				pc = praise(regs, &caught, in.Raise, l.newExc(l.exc.Arith, "/ by zero"))
				continue
			}
			regs[in.Dst] = l.evalPrim(in.Prim, av, bv)
		case PNullCheck:
			v := regs[in.A]
			if v.R == nil {
				pc = praise(regs, &caught, in.Raise, l.newExc(l.exc.NPE, "null dereference"))
				continue
			}
			regs[in.Dst] = v
		case PIndexCheck:
			arr := regs[in.A].R.(*rt.Array)
			idx := regs[in.B].Int()
			if idx < 0 || int(idx) >= len(arr.Elems) {
				pc = praise(regs, &caught, in.Raise, l.boundsExc(idx, len(arr.Elems)))
				continue
			}
			regs[in.Dst] = rt.IntValue(idx)
		case PUpcast:
			v := regs[in.A]
			if v.R != nil && !l.isInstance(v.R, in.Type) {
				pc = praise(regs, &caught, in.Raise, l.castExc(in.Type))
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
				pc = praise(regs, &caught, in.Raise, l.negSizeExc(n))
				continue
			}
			regs[in.Dst] = rt.RefValue(env.NewArray(n, int32(in.Type)))
		case PCall, PDispatch:
			out, thrown := l.pinvoke(regs, in)
			if thrown {
				pc = praise(regs, &caught, in.Raise, out)
				continue
			}
			regs[in.Dst] = out
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
			return rt.Value{}, false
		case PReturnVal:
			env.Leave(pf.Frame)
			return regs[in.A], false
		case PThrow:
			v := regs[in.A]
			if v.R == nil {
				v = l.newExc(l.exc.NPE, "throw of null")
			}
			pc = praise(regs, &caught, in.Raise, v)
			continue
		default:
			panic(fmt.Sprintf("interp: unhandled prepared opcode %s", in.Op))
		}
		pc++
	}
	env.Leave(pf.Frame)
	return caught, true
}
