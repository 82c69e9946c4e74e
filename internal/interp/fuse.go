package interp

import (
	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the compiled engine's superinstructions: one handler that
// runs two adjacent prepared instructions, for the pairs the format makes
// adjacent, and the threading that lets a record's fallthrough skip the
// jumps that only move the pc.
//
// The pairs are fixed by the format, not by a workload. A getfield or a
// getelt consumes the safe-ref or safe-index that the nullcheck or
// indexcheck right before it produced (PAPER.md §1 item 3), every loop
// test is a compare the branchfalse after it tests, every back edge is a
// jump to its loop's loopstep (closeLoop), and a body starts with its
// params and a block with its constants. A pair is a handler kind, not a
// record of its own: compileFunc encodes both halves as their own records
// and then gives the first the pair's handler and the pair's fallthrough,
// and that handler reads the second half's operands from the record after
// it (cinst.second). So lowering carves no record more, and the second
// half keeps its own handler for control that enters it directly (a jump
// target, a handler entry): no jump-target analysis is needed and no
// unfused path is kept beside the fused one. A pair's handler is the
// sequential composition of its halves, charge for charge: each half
// calls Step before its own side effects and raises through craise
// exactly as it would alone, so a kill, an interrupt or a raise between
// the halves is the unfused machine's.

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
// decided. Of the compares, compareBranch has a handler only for the int
// and reference ones; for any other primitive fuse returns none.
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

// fuse is the handler of the pair code[pc] starts and the pair's
// fallthrough, or a nil handler when code[pc] starts none.
//
// The param pairs run once per call, not per iteration, and still pay:
// over run_hot_compute's six guests param→const runs 97 554 times and
// param→param 65 529 — together more than const→const's 128 717, and
// 2.1 % of the 7.72 M dispatches the unfused engine makes there; with
// every pair and threading, the engine makes 5.76 M there.
func fuse(code []PreparedInst, pc int) (handler, int32) {
	p := pairAt(code, pc)
	in := &code[pc]
	switch p {
	case noPair:
		return nil, 0
	case backEdgePair:
		next := threaded(code, in.Target+1)
		switch len(in.Moves) {
		case 0:
			return hBackEdge, next
		case 1:
			return hBackEdgeMove, next
		}
		return hBackEdgeMoves, next
	}
	next := threaded(code, int32(pc+2))
	switch p {
	case nullFieldPair:
		return hNullGetField, next
	case nullIndexPair:
		return hNullIndexCheck, next
	case indexEltPair:
		return hIndexGetElt, next
	case compareBranchPair:
		if h := compareBranchHandlers[in.Prim]; h != nil {
			return h, next
		}
	case constConstPair:
		return hConstConst, next
	case paramParamPair:
		return hParamParam, next
	case paramConstPair:
		return hParamConst, next
	}
	return nil, 0
}

// A back edge is the jump's moves (encoded as the jump's own record
// encodes them), then the step the loopstep charges, then the loop's
// first instruction.

func hBackEdge(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return in.next
}

func hBackEdgeMove(fr *cframe, in *cinst) int32 {
	fr.regs[in.dst] = fr.regs[in.a]
	fr.env.Step()
	return in.next
}

func hBackEdgeMoves(fr *cframe, in *cinst) int32 {
	applyMoves(fr.regs, fr.fn.moves[in.x:in.x+in.c])
	fr.env.Step()
	return in.next
}

// hNullGetField is a nullcheck and the getfield of the safe-ref it made.
func hNullGetField(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	v := fr.regs[in.a]
	if v.R == nil {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.NPE, "null dereference"))
	}
	fr.regs[in.dst] = v
	gf := in.second()
	fr.env.Step()
	fr.regs[gf.dst] = v.R.(*rt.Object).Fields[gf.b]
	return in.next
}

// hNullIndexCheck is a nullcheck and the indexcheck against the safe-ref
// it made.
func hNullIndexCheck(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	v := fr.regs[in.a]
	if v.R == nil {
		return fr.craise(in.x, fr.l.newExc(fr.l.exc.NPE, "null dereference"))
	}
	fr.regs[in.dst] = v
	ic := in.second()
	fr.env.Step()
	arr := v.R.(*rt.Array)
	idx := fr.regs[ic.b].Int()
	if idx < 0 || int(idx) >= len(arr.Elems) {
		return fr.craise(ic.x, fr.l.boundsExc(idx, len(arr.Elems)))
	}
	fr.regs[ic.dst] = rt.IntValue(idx)
	return in.next
}

// hIndexGetElt is an indexcheck and the getelt of the same array at the
// safe-index it made.
func hIndexGetElt(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	arr := fr.regs[in.a].R.(*rt.Array)
	idx := fr.regs[in.b].Int()
	if idx < 0 || int(idx) >= len(arr.Elems) {
		return fr.craise(in.x, fr.l.boundsExc(idx, len(arr.Elems)))
	}
	fr.regs[in.dst] = rt.IntValue(idx)
	fr.env.Step()
	fr.regs[in.second().dst] = arr.Elems[idx]
	return in.next
}

func hConstConst(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = constOf(in)
	nx := in.second()
	fr.env.Step()
	fr.regs[nx.dst] = constOf(nx)
	return in.next
}

func hParamParam(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.args[in.a]
	nx := in.second()
	fr.env.Step()
	fr.regs[nx.dst] = fr.args[nx.a]
	return in.next
}

func hParamConst(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	fr.regs[in.dst] = fr.args[in.a]
	nx := in.second()
	fr.env.Step()
	fr.regs[nx.dst] = constOf(nx)
	return in.next
}

// compareBranchHandlers has the pair handler of each int and reference
// compare and the move-free branchfalse that tests it: the branch's
// target is its own record's b. The bool register is still written: the
// compare's value may have other uses.
var compareBranchHandlers = [256]handler{
	core.PILt: hILtBranch, core.PILe: hILeBranch, core.PIGt: hIGtBranch, core.PIGe: hIGeBranch,
	core.PIEq: hIEqBranch, core.PINe: hINeBranch, core.PREq: hREqBranch, core.PRNe: hRNeBranch,
}

// branchOn writes compare result c and takes the branch that tests it.
func branchOn(fr *cframe, in *cinst, c bool) int32 {
	fr.regs[in.dst] = rt.BoolValue(c)
	if !c {
		return in.second().b
	}
	return in.next
}

func hILtBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, fr.regs[in.a].Int() < fr.regs[in.b].Int())
}

func hILeBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, fr.regs[in.a].Int() <= fr.regs[in.b].Int())
}

func hIGtBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, fr.regs[in.a].Int() > fr.regs[in.b].Int())
}

func hIGeBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, fr.regs[in.a].Int() >= fr.regs[in.b].Int())
}

func hIEqBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, fr.regs[in.a].Int() == fr.regs[in.b].Int())
}

func hINeBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, fr.regs[in.a].Int() != fr.regs[in.b].Int())
}

func hREqBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, sameRef(fr.regs[in.a].R, fr.regs[in.b].R))
}

func hRNeBranch(fr *cframe, in *cinst) int32 {
	fr.env.Step()
	return branchOn(fr, in, !sameRef(fr.regs[in.a].R, fr.regs[in.b].R))
}
