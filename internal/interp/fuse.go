package interp

import (
	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the compiled engine's superinstructions: one thunk that
// runs two adjacent prepared instructions, for the pairs the format makes
// adjacent, and the threading that lets a thunk's fallthrough skip the
// jumps that only move the pc.
//
// The pairs are fixed by the format, not by a workload. A getfield or a
// getelt consumes the safe-ref or safe-index that the nullcheck or
// indexcheck right before it produced (PAPER.md §1 item 3), every loop
// test is a compare the branchfalse after it tests, every back edge is a
// jump to its loop's loopstep (closeLoop), and a body starts with its
// params and a block with its constants. A fused thunk is the sequential
// composition of its halves, charge for charge: each half calls Step
// before its own side effects and raises through craise exactly as it
// would alone, so a kill, an interrupt or a raise between the halves is
// the unfused machine's. compileFunc builds it instead of the first
// half's own thunk, so lowering allocates no closure more; the second
// half keeps its own thunk for control that enters it directly (a jump
// target, a handler entry), so no jump-target analysis is needed and no
// unfused path is kept beside the fused one.

// maxThread bounds the move-free jumps a threaded fallthrough follows.
const maxThread = 4

// threaded is where control that falls through to pc ends up: past the
// chain of move-free jumps starting there, at most maxThread of them. A
// move-free jump does nothing but set the pc, so skipping it is
// unobservable; a jump with moves is never skipped.
func threaded(code []PreparedInst, pc int32) int32 {
	for i := 0; i < maxThread && int(pc) < len(code); i++ {
		in := &code[pc]
		if in.Op != PJump || len(in.Moves) > 0 {
			break
		}
		pc = in.Target
	}
	return pc
}

// pair is the superinstruction an instruction starts, if any.
type pair uint8

const (
	noPair            pair = iota
	backEdgePair           // a jump to a loopstep
	nullFieldPair          // a nullcheck, then the getfield of its safe-ref
	nullIndexPair          // a nullcheck, then the indexcheck against its safe-ref
	indexEltPair           // an indexcheck, then the getelt at its safe-index
	compareBranchPair      // a compare, then the move-free branchfalse testing it
	constConstPair         // two constants
	paramParamPair         // two params
	paramConstPair         // a param, then a constant
)

// pairAt is the pair code[pc] starts: the one place the shapes are
// decided. Of the compares, compareBranch builds a thunk only for the int
// and reference ones; for any other primitive fuse returns nil.
func pairAt(code []PreparedInst, pc int) pair {
	in := &code[pc]
	if in.Op == PJump {
		if code[in.Target].Op == PLoopStep {
			return backEdgePair
		}
		return noPair
	}
	if pc+1 >= len(code) {
		return noPair
	}
	nx := &code[pc+1]
	switch {
	case in.Op == PNullCheck && nx.Op == PGetField && nx.A == in.Dst:
		return nullFieldPair
	case in.Op == PNullCheck && nx.Op == PIndexCheck && nx.A == in.Dst:
		return nullIndexPair
	case in.Op == PIndexCheck && nx.Op == PGetElt && nx.A == in.A && nx.B == in.Dst:
		return indexEltPair
	case in.Op == PPrim && nx.Op == PBranchFalse && nx.A == in.Dst && len(nx.Moves) == 0:
		return compareBranchPair
	case in.Op == PConst && nx.Op == PConst:
		return constConstPair
	case in.Op == PParam && nx.Op == PParam:
		return paramParamPair
	case in.Op == PParam && nx.Op == PConst:
		return paramConstPair
	}
	return noPair
}

// fuse is the superinstruction for code[pc] and what follows it, or nil
// when code[pc] starts no pair.
//
// The param pairs run once per call, not per iteration, and still pay:
// over run_hot_compute's six guests param→const runs 97 554 times and
// param→param 65 529 — together more than const→const's 128 717, and
// 2.1 % of the 7.72 M thunk calls the unfused engine makes there.
func fuse(code []PreparedInst, pc int) cthunk {
	p := pairAt(code, pc)
	in := &code[pc]
	switch p {
	case noPair:
		return nil
	case backEdgePair:
		return backEdge(in.Moves, threaded(code, in.Target+1))
	}
	nx := &code[pc+1]
	next := threaded(code, int32(pc+2))
	switch p {
	case nullFieldPair:
		return nullGetField(in, nx, next)
	case nullIndexPair:
		return nullIndexCheck(in, nx, next)
	case indexEltPair:
		return indexGetElt(in, nx, next)
	case compareBranchPair:
		return compareBranch(in, nx.Target, next)
	case constConstPair:
		d1, v1, d2, v2 := in.Dst, in.Val, nx.Dst, nx.Val
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[d1] = v1
			fr.env.Step()
			fr.regs[d2] = v2
			return next
		}
	case paramParamPair:
		d1, a1, d2, a2 := in.Dst, in.A, nx.Dst, nx.A
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[d1] = fr.args[a1]
			fr.env.Step()
			fr.regs[d2] = fr.args[a2]
			return next
		}
	case paramConstPair:
		d1, a1, d2, v2 := in.Dst, in.A, nx.Dst, nx.Val
		return func(fr *cframe) int32 {
			fr.env.Step()
			fr.regs[d1] = fr.args[a1]
			fr.env.Step()
			fr.regs[d2] = v2
			return next
		}
	}
	return nil
}

// The pair builders below are kept out of line, as callThunk is: a
// closure built by a copy inlined into fuse is compiled as part of fuse,
// where Step is a real call on every execution instead of one compare.

// backEdge is a jump to a loopstep: the edge's moves, then the step the
// loopstep charges, then the loop's first instruction.
//
//go:noinline
func backEdge(mv []Move, next int32) cthunk {
	switch len(mv) {
	case 0:
		return func(fr *cframe) int32 {
			fr.env.Step()
			return next
		}
	case 1:
		d, s := mv[0].Dst, mv[0].Src
		return func(fr *cframe) int32 {
			fr.regs[d] = fr.regs[s]
			fr.env.Step()
			return next
		}
	}
	return func(fr *cframe) int32 {
		applyMoves(fr.regs, mv)
		fr.env.Step()
		return next
	}
}

// nullGetField is a nullcheck and the getfield of the safe-ref it made.
//
//go:noinline
func nullGetField(nc, gf *PreparedInst, next int32) cthunk {
	a, ref, rs := nc.A, nc.Dst, nc.Raise
	dst, slot := gf.Dst, gf.B
	return func(fr *cframe) int32 {
		fr.env.Step()
		v := fr.regs[a]
		if v.R == nil {
			return fr.craise(rs, fr.l.newExc(fr.l.exc.NPE, "null dereference"))
		}
		fr.regs[ref] = v
		fr.env.Step()
		fr.regs[dst] = v.R.(*rt.Object).Fields[slot]
		return next
	}
}

// nullIndexCheck is a nullcheck and the indexcheck against the safe-ref
// it made.
//
//go:noinline
func nullIndexCheck(nc, ic *PreparedInst, next int32) cthunk {
	a, ref, rs := nc.A, nc.Dst, nc.Raise
	dst, b, irs := ic.Dst, ic.B, ic.Raise
	return func(fr *cframe) int32 {
		fr.env.Step()
		v := fr.regs[a]
		if v.R == nil {
			return fr.craise(rs, fr.l.newExc(fr.l.exc.NPE, "null dereference"))
		}
		fr.regs[ref] = v
		fr.env.Step()
		arr := v.R.(*rt.Array)
		idx := fr.regs[b].Int()
		if idx < 0 || int(idx) >= len(arr.Elems) {
			return fr.craise(irs, fr.l.boundsExc(idx, len(arr.Elems)))
		}
		fr.regs[dst] = rt.IntValue(idx)
		return next
	}
}

// indexGetElt is an indexcheck and the getelt of the same array at the
// safe-index it made.
//
//go:noinline
func indexGetElt(ic, ge *PreparedInst, next int32) cthunk {
	a, b, idxReg, rs := ic.A, ic.B, ic.Dst, ic.Raise
	dst := ge.Dst
	return func(fr *cframe) int32 {
		fr.env.Step()
		arr := fr.regs[a].R.(*rt.Array)
		idx := fr.regs[b].Int()
		if idx < 0 || int(idx) >= len(arr.Elems) {
			return fr.craise(rs, fr.l.boundsExc(idx, len(arr.Elems)))
		}
		fr.regs[idxReg] = rt.IntValue(idx)
		fr.env.Step()
		fr.regs[dst] = arr.Elems[idx]
		return next
	}
}

// compareBranch is an int or reference compare and the move-free
// branchfalse that tests it, or nil for any other primitive. The bool
// register is still written: the compare's value may have other uses.
//
//go:noinline
func compareBranch(in *PreparedInst, target, next int32) cthunk {
	dst, a, b := in.Dst, in.A, in.B
	switch in.Prim {
	case core.PILt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := fr.regs[a].Int() < fr.regs[b].Int()
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PILe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := fr.regs[a].Int() <= fr.regs[b].Int()
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PIGt:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := fr.regs[a].Int() > fr.regs[b].Int()
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PIGe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := fr.regs[a].Int() >= fr.regs[b].Int()
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PIEq:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := fr.regs[a].Int() == fr.regs[b].Int()
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PINe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := fr.regs[a].Int() != fr.regs[b].Int()
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PREq:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := sameRef(fr.regs[a].R, fr.regs[b].R)
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	case core.PRNe:
		return func(fr *cframe) int32 {
			fr.env.Step()
			c := !sameRef(fr.regs[a].R, fr.regs[b].R)
			fr.regs[dst] = rt.BoolValue(c)
			if !c {
				return target
			}
			return next
		}
	}
	return nil
}
