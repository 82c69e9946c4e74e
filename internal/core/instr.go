package core

import "fmt"

// ValueID identifies an SSA value within one function; IDs are assigned
// in creation order and are dense. 0 means "no value".
type ValueID int32

// NoValue marks the absence of a value operand or result.
const NoValue ValueID = 0

// Op is a SafeTSA opcode.
type Op uint8

// The SafeTSA instruction set (sections 4–6 of the paper). Result planes
// are implied by the opcode and its type arguments; there is no way to
// name a destination register explicitly.
const (
	OpInvalid Op = iota

	// OpParam pre-loads parameter Aux into a register of the parameter's
	// type in the initial block ("pre-loading" of section 5; no target
	// code is generated for it).
	OpParam
	// OpConst pre-loads a constant (from Const) onto the plane of Type.
	OpConst
	// OpPhi merges values; operand k corresponds to incoming edge k of
	// its block. All operands and the result share one plane.
	OpPhi
	// OpPrim applies non-throwing primitive operation Prim.
	OpPrim
	// OpXPrim applies potentially-throwing primitive operation Prim
	// (integer division and remainder).
	OpXPrim

	// OpNullCheck takes a value from the plane of reference type
	// TypeArg and deposits it on the SafeRef(TypeArg) plane, after a
	// runtime null check (NullPointerException on failure).
	OpNullCheck
	// OpIndexCheck takes an array from the SafeRef(TypeArg) plane
	// (TypeArg is the array type) and an int; after a runtime bounds
	// check it deposits the index on the SafeIndex(TypeArg) plane bound
	// to the array value (Appendix A).
	OpIndexCheck
	// OpUpcast performs a dynamically checked reference cast to
	// TypeArg (ClassCastException on failure). Operand plane is the
	// ref type recorded in ArgType.
	OpUpcast
	// OpDowncast moves a value to a statically-safe weaker plane
	// (safe-ref → ref; ref → superclass ref; safe-ref → superclass
	// safe-ref). TypeArg is the destination plane. It generates no
	// target code.
	OpDowncast

	// OpGetField/OpSetField access field Field (module field-table
	// index); the object operand lives on the owner's safe-ref plane.
	OpGetField
	OpSetField
	// OpGetElt/OpSetElt access array elements; the array operand lives
	// on SafeRef(TypeArg) and the index on SafeIndex(TypeArg) bound to
	// that same array value.
	OpGetElt
	OpSetElt
	// OpArrayLen reads the length of an array on SafeRef(TypeArg).
	OpArrayLen

	// OpXCall invokes method Method without dynamic dispatch (statics,
	// constructors, super calls, imported finals). For instance
	// methods, operand 0 is the receiver on the owner's safe-ref plane.
	OpXCall
	// OpXDispatch invokes virtually through the dispatch-table slot of
	// method Method; operand 0 is the receiver.
	OpXDispatch

	// OpNew allocates an instance of class TypeArg; the result is
	// already non-null and lives on SafeRef(TypeArg). The constructor
	// is invoked separately via OpXCall.
	OpNew
	// OpNewArray allocates an array of type TypeArg with the given int
	// length; throws NegativeArraySizeException.
	OpNewArray
	// OpInstanceOf tests whether the operand (plane ArgType, a ref
	// type) is a non-null instance of TypeArg.
	OpInstanceOf

	// OpCatch appears first in an exception-handler block and produces
	// the caught value on the Throwable ref plane.
	OpCatch

	// OpMem0 produces the initial memory state; memory-state values
	// exist only during producer-side optimization and are never
	// encoded (section 8).
	OpMem0
)

var opNames = [...]string{
	OpInvalid:    "invalid",
	OpParam:      "param",
	OpConst:      "const",
	OpPhi:        "phi",
	OpPrim:       "primitive",
	OpXPrim:      "xprimitive",
	OpNullCheck:  "nullcheck",
	OpIndexCheck: "indexcheck",
	OpUpcast:     "upcast",
	OpDowncast:   "downcast",
	OpGetField:   "getfield",
	OpSetField:   "setfield",
	OpGetElt:     "getelt",
	OpSetElt:     "setelt",
	OpArrayLen:   "arraylen",
	OpXCall:      "xcall",
	OpXDispatch:  "xdispatch",
	OpNew:        "new",
	OpNewArray:   "newarray",
	OpInstanceOf: "instanceof",
	OpCatch:      "catch",
	OpMem0:       "mem0",
}

// NumOps is the size of the opcode alphabet (used by the wire format).
const NumOps = int(OpMem0) + 1

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// CanThrow reports whether the opcode may raise an exception and is
// therefore an exception-edge source inside try regions and a root for
// dead-code elimination.
func (o Op) CanThrow() bool {
	switch o {
	case OpXPrim, OpNullCheck, OpIndexCheck, OpUpcast, OpNewArray, OpXCall, OpXDispatch:
		return true
	}
	return false
}

// HasSideEffect reports whether the instruction must be preserved even if
// its result is unused.
func (o Op) HasSideEffect() bool {
	switch o {
	case OpSetField, OpSetElt, OpXCall, OpXDispatch, OpXPrim,
		OpNullCheck, OpIndexCheck, OpUpcast, OpNewArray:
		return true
	}
	return false
}

// ConstKind discriminates constant values.
type ConstKind uint8

// Constant kinds; KNull is a typed null on some reference plane.
const (
	KNone ConstKind = iota
	KInt
	KLong
	KDouble
	KBool
	KChar
	KString
	KNull
)

// ConstVal is the payload of an OpConst instruction.
type ConstVal struct {
	Kind ConstKind
	I    int64   // int, long, char, bool (0/1)
	D    float64 // double
	S    string  // string
}

// String renders the constant.
func (c ConstVal) String() string {
	switch c.Kind {
	case KInt, KLong, KChar:
		return fmt.Sprintf("%d", c.I)
	case KDouble:
		return fmt.Sprintf("%g", c.D)
	case KBool:
		if c.I != 0 {
			return "true"
		}
		return "false"
	case KString:
		return fmt.Sprintf("%q", c.S)
	case KNull:
		return "null"
	}
	return "<none>"
}

// Instr is one SafeTSA instruction. Result: instructions whose opcode
// produces a value fill the next free register of the plane identified by
// (Type, Bind); ID is the function-wide SSA name of that result. Void
// instructions have ID == NoValue and Type == the table's Void.
type Instr struct {
	ID   ValueID
	Op   Op
	Type TypeID // result plane type (Void for no result)
	// Bind is the array value a safe-index result is bound to
	// (NoValue otherwise).
	Bind ValueID
	// ArgType is the operand plane for OpNullCheck, OpUpcast,
	// OpInstanceOf, and OpDowncast sources.
	ArgType TypeID
	// TypeArg is the symbolic type argument (target of casts, class of
	// new, array type of element accesses...).
	TypeArg TypeID
	Args    []ValueID
	Field   int32 // field-table index for OpGetField/OpSetField
	Method  int32 // method-table index for OpXCall/OpXDispatch
	Prim    PrimOp
	Aux     int32    // parameter index for OpParam
	Const   ConstVal // payload for OpConst

	Blk *Block
}

// HasResult reports whether the instruction defines an SSA value.
func (in *Instr) HasResult() bool { return in.ID != NoValue }
