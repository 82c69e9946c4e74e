package interp

import (
	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// evalPrim evaluates one primitive operation. It is shared by the
// reference CST walker, the prepared register machine and the compiled
// engine's long tail, so the engines cannot drift on arithmetic: the
// operations that need the session (reference identity, string building
// under the allocation budget) are here, and everything else is
// rt.EvalPure, the evaluator the producer's constant folder also uses.
// The four trapping division primitives (PIDiv/PIRem/PLDiv/PLRem) must
// have their zero-divisor check performed by the caller before this is
// reached. Unary operations ignore b (the prepared engine passes the
// scratch register).
func (l *Loader) evalPrim(p core.PrimOp, a, b rt.Value) rt.Value {
	switch p {
	case core.PREq:
		return rt.BoolValue(sameRef(a.R, b.R))
	case core.PRNe:
		return rt.BoolValue(!sameRef(a.R, b.R))

	case core.PSConcat:
		return rt.RefValue(l.Env.Concat(a.R, b.R))
	case core.PSOfInt:
		return rt.RefValue(l.Env.Str(rt.StringOf(a, 'i')))
	case core.PSOfLong:
		return rt.RefValue(l.Env.Str(rt.StringOf(a, 'l')))
	case core.PSOfDouble:
		return rt.RefValue(l.Env.Str(rt.StringOf(a, 'd')))
	case core.PSOfBool:
		return rt.RefValue(l.Env.Str(rt.StringOf(a, 'z')))
	case core.PSOfChar:
		return rt.RefValue(l.Env.Str(rt.StringOf(a, 'c')))
	case core.PSOfRef:
		return rt.RefValue(l.Env.Str(rt.RefString(a.R)))
	}
	return rt.EvalPure(p, a, b)
}
