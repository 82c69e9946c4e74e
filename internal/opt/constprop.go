package opt

import (
	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// constProp folds primitive operations over constant operands and
// simplifies phis whose operands have collapsed to a single value. Folded
// instructions are replaced in place by constants, so the paper's claim
// that constant propagation shrinks programs by only 1–2% can be measured
// directly. Returns the number of instructions removed or folded.
func constProp(sc *scratch, f *core.Func) int {
	changed := 0
	sc.repl = sized(sc.repl, f.NumValues()+1)
	repl := sc.repl
	for {
		dead := 0
		for _, b := range f.Blocks {
			// phi(x, x, ..., x) -> x when x's definition structurally
			// dominates the phi's block (which keeps the result
			// expressible as an (l, r) reference).
			kept := 0
			for _, phi := range b.Phis {
				if x := trivialPhi(phi); x != core.NoValue {
					def := f.DefBlock(x)
					if def != nil && def != b && def.Dominates(b) {
						repl[phi.ID] = x
						dead++
						continue
					}
				}
				b.Phis[kept] = phi
				kept++
			}
			b.Phis = b.Phis[:kept]
		}
		folded := 0
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op != core.OpPrim {
					continue
				}
				cv, ok := foldPrim(f, in)
				if !ok {
					continue
				}
				// Replace the primitive in place with the folded
				// constant.
				in.Op = core.OpConst
				in.Args = nil
				in.Prim = core.PInvalid
				in.Const = cv
				folded++
			}
		}
		if dead == 0 && folded == 0 {
			break
		}
		if dead > 0 {
			replaceUses(f, repl)
			clear(repl)
		}
		changed += dead + folded
	}
	return changed
}

// trivialPhi returns the single value a phi's operands agree on, NoValue
// when they do not. Operands that are the phi itself are ignored:
// loop-invariant variables produce phi(x, self).
func trivialPhi(phi *core.Instr) core.ValueID {
	x := core.NoValue
	for _, a := range phi.Args {
		if a == phi.ID {
			continue
		}
		if x == core.NoValue {
			x = a
		} else if a != x {
			return core.NoValue
		}
	}
	return x
}

// foldable is the explicit list of primitives constant propagation
// folds: the non-trapping int/long/double/boolean/char arithmetic,
// comparisons and conversions. Everything else stays an instruction —
// the trapping divisions (OpXPrim), the long/double min/max/abs-long,
// remainder and transcendental intrinsics the paper's measured
// configuration never folded, reference equality, and the
// String-producing primitives, whose results have object identity.
func foldable(p core.PrimOp) bool {
	switch p {
	case core.PIAdd, core.PISub, core.PIMul, core.PINeg, core.PIShl, core.PIShr,
		core.PIAnd, core.PIOr, core.PIXor, core.PIEq, core.PINe, core.PILt, core.PILe,
		core.PIGt, core.PIGe, core.PIAbs, core.PIMin, core.PIMax, core.PI2L, core.PI2D, core.PI2C,
		core.PLAdd, core.PLSub, core.PLMul, core.PLNeg, core.PLShl, core.PLShr,
		core.PLAnd, core.PLOr, core.PLXor, core.PLEq, core.PLNe, core.PLLt, core.PLLe,
		core.PLGt, core.PLGe, core.PL2I, core.PL2D,
		core.PDAdd, core.PDSub, core.PDMul, core.PDDiv, core.PDNeg, core.PDEq, core.PDNe,
		core.PDLt, core.PDLe, core.PDGt, core.PDGe, core.PDAbs, core.PDSqrt, core.PD2I, core.PD2L,
		core.PBNot, core.PBAnd, core.PBOr, core.PBXor, core.PBEq, core.PBNe,
		core.PC2I:
		return true
	}
	return false
}

// foldPrim evaluates a foldable primitive whose operands are all
// constants, through the evaluator the engines execute it with
// (rt.EvalPure): folding is an instance of evaluation, so the producer
// cannot compute a different answer than the consumer would have. An
// operand is constant when its definition is an OpConst — which a folded
// primitive has become, so folds chain within a round.
func foldPrim(f *core.Func, in *core.Instr) (core.ConstVal, bool) {
	if !foldable(in.Prim) {
		return core.ConstVal{}, false
	}
	var args [2]rt.Value // unary primitives ignore the second
	for i, a := range in.Args {
		d := f.Value(a)
		if d == nil || d.Op != core.OpConst {
			return core.ConstVal{}, false
		}
		if d.Const.Kind == core.KDouble {
			args[i] = rt.DoubleValue(d.Const.D)
		} else {
			args[i] = rt.Value{I: d.Const.I}
		}
	}
	v := rt.EvalPure(in.Prim, args[0], args[1])
	switch in.Prim.Sig().Result {
	case core.PlInt:
		return core.ConstVal{Kind: core.KInt, I: v.I}, true
	case core.PlLong:
		return core.ConstVal{Kind: core.KLong, I: v.I}, true
	case core.PlDouble:
		return core.ConstVal{Kind: core.KDouble, D: v.D()}, true
	case core.PlBool:
		return core.ConstVal{Kind: core.KBool, I: v.I}, true
	case core.PlChar:
		return core.ConstVal{Kind: core.KChar, I: v.I}, true
	}
	return core.ConstVal{}, false
}
