package rt

import (
	"fmt"
	"math"

	"safetsa/internal/core"
)

// EvalPure evaluates a primitive whose result is a function of its
// operand values alone: the int, long, double, boolean and char
// arithmetic, comparisons and conversions. It is the one definition of
// that arithmetic — the engines evaluate through it and the producer's
// constant folder (opt.foldPrim) folds through it, so a producer cannot
// fold differently from the consumer that would have executed the
// instruction. Reference equality and the String operations are not
// here: they depend on object identity or charge the allocation budget,
// and the engine evaluates them itself (EvalPure panics on them). The
// four trapping divisions assume the caller has already excluded a zero
// divisor. Unary operations ignore b.
func EvalPure(p core.PrimOp, a, b Value) Value {
	i32a, i32b := a.Int(), b.Int()
	switch p {
	case core.PIAdd:
		return IntValue(i32a + i32b)
	case core.PISub:
		return IntValue(i32a - i32b)
	case core.PIMul:
		return IntValue(i32a * i32b)
	case core.PIDiv:
		return IntValue(IDiv(i32a, i32b))
	case core.PIRem:
		return IntValue(IRem(i32a, i32b))
	case core.PINeg:
		return IntValue(-i32a)
	case core.PIShl:
		return IntValue(i32a << (uint32(i32b) & 31))
	case core.PIShr:
		return IntValue(i32a >> (uint32(i32b) & 31))
	case core.PIAnd:
		return IntValue(i32a & i32b)
	case core.PIOr:
		return IntValue(i32a | i32b)
	case core.PIXor:
		return IntValue(i32a ^ i32b)
	case core.PIEq:
		return BoolValue(i32a == i32b)
	case core.PINe:
		return BoolValue(i32a != i32b)
	case core.PILt:
		return BoolValue(i32a < i32b)
	case core.PILe:
		return BoolValue(i32a <= i32b)
	case core.PIGt:
		return BoolValue(i32a > i32b)
	case core.PIGe:
		return BoolValue(i32a >= i32b)
	case core.PIAbs:
		if i32a < 0 {
			return IntValue(-i32a)
		}
		return IntValue(i32a)
	case core.PIMin:
		if i32a < i32b {
			return IntValue(i32a)
		}
		return IntValue(i32b)
	case core.PIMax:
		if i32a > i32b {
			return IntValue(i32a)
		}
		return IntValue(i32b)
	case core.PI2L:
		return LongValue(int64(i32a))
	case core.PI2D:
		return DoubleValue(float64(i32a))
	case core.PI2C:
		return CharValue(rune(uint16(i32a)))

	case core.PLAdd:
		return LongValue(a.I + b.I)
	case core.PLSub:
		return LongValue(a.I - b.I)
	case core.PLMul:
		return LongValue(a.I * b.I)
	case core.PLDiv:
		return LongValue(LDiv(a.I, b.I))
	case core.PLRem:
		return LongValue(LRem(a.I, b.I))
	case core.PLNeg:
		return LongValue(-a.I)
	case core.PLShl:
		return LongValue(a.I << (uint32(i32b) & 63))
	case core.PLShr:
		return LongValue(a.I >> (uint32(i32b) & 63))
	case core.PLAnd:
		return LongValue(a.I & b.I)
	case core.PLOr:
		return LongValue(a.I | b.I)
	case core.PLXor:
		return LongValue(a.I ^ b.I)
	case core.PLEq:
		return BoolValue(a.I == b.I)
	case core.PLNe:
		return BoolValue(a.I != b.I)
	case core.PLLt:
		return BoolValue(a.I < b.I)
	case core.PLLe:
		return BoolValue(a.I <= b.I)
	case core.PLGt:
		return BoolValue(a.I > b.I)
	case core.PLGe:
		return BoolValue(a.I >= b.I)
	case core.PLAbs:
		if a.I < 0 {
			return LongValue(-a.I)
		}
		return LongValue(a.I)
	case core.PLMin:
		if a.I < b.I {
			return LongValue(a.I)
		}
		return LongValue(b.I)
	case core.PLMax:
		if a.I > b.I {
			return LongValue(a.I)
		}
		return LongValue(b.I)
	case core.PL2I:
		return IntValue(int32(a.I))
	case core.PL2D:
		return DoubleValue(float64(a.I))

	case core.PDAdd:
		return DoubleValue(a.D() + b.D())
	case core.PDSub:
		return DoubleValue(a.D() - b.D())
	case core.PDMul:
		return DoubleValue(a.D() * b.D())
	case core.PDDiv:
		return DoubleValue(a.D() / b.D())
	case core.PDRem:
		return DoubleValue(DRem(a.D(), b.D()))
	case core.PDNeg:
		return DoubleValue(-a.D())
	case core.PDEq:
		return BoolValue(a.D() == b.D())
	case core.PDNe:
		return BoolValue(a.D() != b.D())
	case core.PDLt:
		return BoolValue(a.D() < b.D())
	case core.PDLe:
		return BoolValue(a.D() <= b.D())
	case core.PDGt:
		return BoolValue(a.D() > b.D())
	case core.PDGe:
		return BoolValue(a.D() >= b.D())
	case core.PDAbs:
		return DoubleValue(math.Abs(a.D()))
	case core.PDMin:
		return DoubleValue(math.Min(a.D(), b.D()))
	case core.PDMax:
		return DoubleValue(math.Max(a.D(), b.D()))
	case core.PDSqrt:
		return DoubleValue(math.Sqrt(a.D()))
	case core.PDPow:
		return DoubleValue(math.Pow(a.D(), b.D()))
	case core.PDFloor:
		return DoubleValue(math.Floor(a.D()))
	case core.PDCeil:
		return DoubleValue(math.Ceil(a.D()))
	case core.PDLog:
		return DoubleValue(math.Log(a.D()))
	case core.PDExp:
		return DoubleValue(math.Exp(a.D()))
	case core.PDSin:
		return DoubleValue(math.Sin(a.D()))
	case core.PDCos:
		return DoubleValue(math.Cos(a.D()))
	case core.PD2I:
		return IntValue(D2I(a.D()))
	case core.PD2L:
		return LongValue(D2L(a.D()))

	case core.PBNot:
		return BoolValue(a.I == 0)
	case core.PBAnd:
		return BoolValue(a.I != 0 && b.I != 0)
	case core.PBOr:
		return BoolValue(a.I != 0 || b.I != 0)
	case core.PBXor:
		return BoolValue((a.I != 0) != (b.I != 0))
	case core.PBEq:
		return BoolValue((a.I != 0) == (b.I != 0))
	case core.PBNe:
		return BoolValue((a.I != 0) != (b.I != 0))

	case core.PC2I:
		return IntValue(int32(uint16(a.I)))
	}
	panic(fmt.Sprintf("rt: %s is not a pure primitive", p))
}
