package core

import "fmt"

// PrimOp identifies a primitive operation. As in section 5 of the paper,
// primitives are subordinate to types: each PrimOp belongs to a base type
// (its spelling is prefixed accordingly), has a fixed operand/result
// signature, and is classified as exception-free (usable with OpPrim) or
// potentially-throwing (requiring OpXPrim).
type PrimOp uint8

// The primitive operations.
const (
	PInvalid PrimOp = iota

	// int
	PIAdd
	PISub
	PIMul
	PIDiv // x
	PIRem // x
	PINeg
	PIShl
	PIShr
	PIAnd
	PIOr
	PIXor
	PIEq
	PINe
	PILt
	PILe
	PIGt
	PIGe
	PIAbs
	PIMin
	PIMax
	PI2L
	PI2D
	PI2C

	// long
	PLAdd
	PLSub
	PLMul
	PLDiv // x
	PLRem // x
	PLNeg
	PLShl
	PLShr
	PLAnd
	PLOr
	PLXor
	PLEq
	PLNe
	PLLt
	PLLe
	PLGt
	PLGe
	PLAbs
	PLMin
	PLMax
	PL2I
	PL2D

	// double
	PDAdd
	PDSub
	PDMul
	PDDiv
	PDRem
	PDNeg
	PDEq
	PDNe
	PDLt
	PDLe
	PDGt
	PDGe
	PDAbs
	PDMin
	PDMax
	PDSqrt
	PDPow
	PDFloor
	PDCeil
	PDLog
	PDExp
	PDSin
	PDCos
	PD2I
	PD2L

	// boolean
	PBNot
	PBAnd
	PBOr
	PBXor
	PBEq
	PBNe

	// char
	PC2I

	// reference (Object plane)
	PREq
	PRNe

	// String (operations of the imported String type; string conversion
	// renders null as "null", so these take the plain String plane).
	PSConcat
	PSOfInt
	PSOfLong
	PSOfDouble
	PSOfBool
	PSOfChar
	PSOfRef // string conversion of an arbitrary reference; null -> "null"

	numPrimOps
)

// NumPrimOps is the size of the primitive-operation alphabet.
const NumPrimOps = int(numPrimOps)

// PlaneClass abstracts the operand/result planes of a primitive
// signature; signatures are resolved against a concrete TypeTable with
// the planeType helper.
type PlaneClass uint8

// Plane classes for primitive signatures.
const (
	PlNone PlaneClass = iota
	PlInt
	PlLong
	PlDouble
	PlBool
	PlChar
	PlObject
	PlString
)

// PrimSig is the signature of a primitive operation.
type PrimSig struct {
	Name   string
	Params []PlaneClass
	Result PlaneClass
	Throws bool // must be used with OpXPrim
}

// primSigs is indexed by PrimOp; an entry with no Name is no primitive.
var primSigs = [numPrimOps]PrimSig{
	PIAdd: {"int.add", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PISub: {"int.sub", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIMul: {"int.mul", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIDiv: {"int.div", []PlaneClass{PlInt, PlInt}, PlInt, true},
	PIRem: {"int.rem", []PlaneClass{PlInt, PlInt}, PlInt, true},
	PINeg: {"int.neg", []PlaneClass{PlInt}, PlInt, false},
	PIShl: {"int.shl", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIShr: {"int.shr", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIAnd: {"int.and", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIOr:  {"int.or", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIXor: {"int.xor", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIEq:  {"int.eq", []PlaneClass{PlInt, PlInt}, PlBool, false},
	PINe:  {"int.ne", []PlaneClass{PlInt, PlInt}, PlBool, false},
	PILt:  {"int.lt", []PlaneClass{PlInt, PlInt}, PlBool, false},
	PILe:  {"int.le", []PlaneClass{PlInt, PlInt}, PlBool, false},
	PIGt:  {"int.gt", []PlaneClass{PlInt, PlInt}, PlBool, false},
	PIGe:  {"int.ge", []PlaneClass{PlInt, PlInt}, PlBool, false},
	PIAbs: {"int.abs", []PlaneClass{PlInt}, PlInt, false},
	PIMin: {"int.min", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PIMax: {"int.max", []PlaneClass{PlInt, PlInt}, PlInt, false},
	PI2L:  {"int.tolong", []PlaneClass{PlInt}, PlLong, false},
	PI2D:  {"int.todouble", []PlaneClass{PlInt}, PlDouble, false},
	PI2C:  {"int.tochar", []PlaneClass{PlInt}, PlChar, false},

	PLAdd: {"long.add", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLSub: {"long.sub", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLMul: {"long.mul", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLDiv: {"long.div", []PlaneClass{PlLong, PlLong}, PlLong, true},
	PLRem: {"long.rem", []PlaneClass{PlLong, PlLong}, PlLong, true},
	PLNeg: {"long.neg", []PlaneClass{PlLong}, PlLong, false},
	PLShl: {"long.shl", []PlaneClass{PlLong, PlInt}, PlLong, false},
	PLShr: {"long.shr", []PlaneClass{PlLong, PlInt}, PlLong, false},
	PLAnd: {"long.and", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLOr:  {"long.or", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLXor: {"long.xor", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLEq:  {"long.eq", []PlaneClass{PlLong, PlLong}, PlBool, false},
	PLNe:  {"long.ne", []PlaneClass{PlLong, PlLong}, PlBool, false},
	PLLt:  {"long.lt", []PlaneClass{PlLong, PlLong}, PlBool, false},
	PLLe:  {"long.le", []PlaneClass{PlLong, PlLong}, PlBool, false},
	PLGt:  {"long.gt", []PlaneClass{PlLong, PlLong}, PlBool, false},
	PLGe:  {"long.ge", []PlaneClass{PlLong, PlLong}, PlBool, false},
	PLAbs: {"long.abs", []PlaneClass{PlLong}, PlLong, false},
	PLMin: {"long.min", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PLMax: {"long.max", []PlaneClass{PlLong, PlLong}, PlLong, false},
	PL2I:  {"long.toint", []PlaneClass{PlLong}, PlInt, false},
	PL2D:  {"long.todouble", []PlaneClass{PlLong}, PlDouble, false},

	PDAdd:   {"double.add", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDSub:   {"double.sub", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDMul:   {"double.mul", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDDiv:   {"double.div", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDRem:   {"double.rem", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDNeg:   {"double.neg", []PlaneClass{PlDouble}, PlDouble, false},
	PDEq:    {"double.eq", []PlaneClass{PlDouble, PlDouble}, PlBool, false},
	PDNe:    {"double.ne", []PlaneClass{PlDouble, PlDouble}, PlBool, false},
	PDLt:    {"double.lt", []PlaneClass{PlDouble, PlDouble}, PlBool, false},
	PDLe:    {"double.le", []PlaneClass{PlDouble, PlDouble}, PlBool, false},
	PDGt:    {"double.gt", []PlaneClass{PlDouble, PlDouble}, PlBool, false},
	PDGe:    {"double.ge", []PlaneClass{PlDouble, PlDouble}, PlBool, false},
	PDAbs:   {"double.abs", []PlaneClass{PlDouble}, PlDouble, false},
	PDMin:   {"double.min", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDMax:   {"double.max", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDSqrt:  {"double.sqrt", []PlaneClass{PlDouble}, PlDouble, false},
	PDPow:   {"double.pow", []PlaneClass{PlDouble, PlDouble}, PlDouble, false},
	PDFloor: {"double.floor", []PlaneClass{PlDouble}, PlDouble, false},
	PDCeil:  {"double.ceil", []PlaneClass{PlDouble}, PlDouble, false},
	PDLog:   {"double.log", []PlaneClass{PlDouble}, PlDouble, false},
	PDExp:   {"double.exp", []PlaneClass{PlDouble}, PlDouble, false},
	PDSin:   {"double.sin", []PlaneClass{PlDouble}, PlDouble, false},
	PDCos:   {"double.cos", []PlaneClass{PlDouble}, PlDouble, false},
	PD2I:    {"double.toint", []PlaneClass{PlDouble}, PlInt, false},
	PD2L:    {"double.tolong", []PlaneClass{PlDouble}, PlLong, false},

	PBNot: {"boolean.not", []PlaneClass{PlBool}, PlBool, false},
	PBAnd: {"boolean.and", []PlaneClass{PlBool, PlBool}, PlBool, false},
	PBOr:  {"boolean.or", []PlaneClass{PlBool, PlBool}, PlBool, false},
	PBXor: {"boolean.xor", []PlaneClass{PlBool, PlBool}, PlBool, false},
	PBEq:  {"boolean.eq", []PlaneClass{PlBool, PlBool}, PlBool, false},
	PBNe:  {"boolean.ne", []PlaneClass{PlBool, PlBool}, PlBool, false},

	PC2I: {"char.toint", []PlaneClass{PlChar}, PlInt, false},

	PREq: {"ref.eq", []PlaneClass{PlObject, PlObject}, PlBool, false},
	PRNe: {"ref.ne", []PlaneClass{PlObject, PlObject}, PlBool, false},

	PSConcat:   {"String.concat", []PlaneClass{PlString, PlString}, PlString, false},
	PSOfInt:    {"String.ofint", []PlaneClass{PlInt}, PlString, false},
	PSOfLong:   {"String.oflong", []PlaneClass{PlLong}, PlString, false},
	PSOfDouble: {"String.ofdouble", []PlaneClass{PlDouble}, PlString, false},
	PSOfBool:   {"String.ofboolean", []PlaneClass{PlBool}, PlString, false},
	PSOfChar:   {"String.ofchar", []PlaneClass{PlChar}, PlString, false},
	PSOfRef:    {"String.ofref", []PlaneClass{PlObject}, PlString, false},
}

// Sig returns the signature of p.
func (p PrimOp) Sig() PrimSig {
	if !p.Valid() {
		panic(fmt.Sprintf("core: unknown primitive operation %d", uint8(p)))
	}
	return primSigs[p]
}

// Valid reports whether p is a defined primitive operation.
func (p PrimOp) Valid() bool { return p < numPrimOps && primSigs[p].Name != "" }

// String returns the type-qualified name of the primitive.
func (p PrimOp) String() string {
	if p.Valid() {
		return primSigs[p].Name
	}
	return fmt.Sprintf("prim(%d)", uint8(p))
}

// PlaneType resolves a PlaneClass against a type table.
func PlaneType(tt *TypeTable, pc PlaneClass) TypeID {
	switch pc {
	case PlInt:
		return tt.Int
	case PlLong:
		return tt.Long
	case PlDouble:
		return tt.Double
	case PlBool:
		return tt.Boolean
	case PlChar:
		return tt.Char
	case PlObject:
		return tt.Object
	case PlString:
		return tt.String
	}
	return NoType
}
