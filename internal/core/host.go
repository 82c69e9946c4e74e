package core

import "slices"

// BuiltinID names one operation of the host environment's library: a
// natively implemented imported method, or a primitive operation the
// front end lowers a library call to.
type BuiltinID int32

// The host operations. They cover the imported Object, String and
// exception classes and the Math/System.out static library.
const (
	BNone BuiltinID = iota

	// String instance methods (receiver null-checked).
	BStrLength
	BStrCharAt
	BStrSubstring
	BStrEquals
	BStrCompareTo
	BStrIndexOf
	BStrHashCode

	// String-typed primitive operations (no null check; null renders
	// as "null", as in Java string conversion).
	BStrConcat
	BStrOfInt
	BStrOfLong
	BStrOfDouble
	BStrOfBool
	BStrOfChar

	// Object methods.
	BObjHashCode
	BObjEquals
	BObjToString

	// Exception methods.
	BExcGetMessage

	// Math statics, which travel as primitive operations (PrimOp), not
	// as methods.
	BMathSqrt
	BMathAbsD
	BMathAbsI
	BMathAbsL
	BMathMinI
	BMathMaxI
	BMathMinD
	BMathMaxD
	BMathMinL
	BMathMaxL
	BMathPow
	BMathFloor
	BMathCeil
	BMathLog
	BMathExp
	BMathSin
	BMathCos

	// System.out.
	BPrintlnString
	BPrintlnInt
	BPrintlnLong
	BPrintlnDouble
	BPrintlnBool
	BPrintlnChar
	BPrintlnEmpty
	BPrintString
	BPrintInt
	BPrintLong
	BPrintDouble
	BPrintBool
	BPrintChar
)

// HostMethod is one method of the host library, in the terms of the
// implicit prefix every type table starts with (NewTypeTable), so its
// types are the same TypeIDs in every module. The producer's front end
// declares the imported classes' methods and the System.out operations
// from this table, and admission binds each imported method-table entry
// to the operation whose owner, name, parameters, result and staticness
// it names (Module.DeriveTables): both ends read one table, so a unit
// cannot bind a method to an operation of another shape.
type HostMethod struct {
	Owner   TypeID
	Name    string
	Params  []TypeID
	Result  TypeID
	Static  bool
	Builtin BuiltinID
}

// hostMethods is the host library, each class's methods in declaration
// order: the order the dispatch-table rule (derive.go) assigns their
// slots in. The System.out operations are static methods of Object named
// "System.out.<name>".
var hostMethods = func() []HostMethod {
	tt := implicit
	m := func(owner TypeID, name string, result TypeID, id BuiltinID, params ...TypeID) HostMethod {
		return HostMethod{Owner: owner, Name: name, Params: params, Result: result, Builtin: id}
	}
	sysOut := func(name string, id BuiltinID, params ...TypeID) HostMethod {
		h := m(tt.Object, "System.out."+name, tt.Void, id, params...)
		h.Static = true
		return h
	}
	return []HostMethod{
		m(tt.Object, "hashCode", tt.Int, BObjHashCode),
		m(tt.Object, "equals", tt.Boolean, BObjEquals, tt.Object),
		m(tt.Object, "toString", tt.String, BObjToString),

		m(tt.String, "length", tt.Int, BStrLength),
		m(tt.String, "charAt", tt.Char, BStrCharAt, tt.Int),
		m(tt.String, "substring", tt.String, BStrSubstring, tt.Int, tt.Int),
		m(tt.String, "equals", tt.Boolean, BStrEquals, tt.Object),
		m(tt.String, "compareTo", tt.Int, BStrCompareTo, tt.String),
		m(tt.String, "indexOf", tt.Int, BStrIndexOf, tt.String),
		m(tt.String, "hashCode", tt.Int, BStrHashCode),

		m(tt.Throwable, "getMessage", tt.String, BExcGetMessage),

		sysOut("println", BPrintlnString, tt.String),
		sysOut("println", BPrintlnInt, tt.Int),
		sysOut("println", BPrintlnLong, tt.Long),
		sysOut("println", BPrintlnDouble, tt.Double),
		sysOut("println", BPrintlnBool, tt.Boolean),
		sysOut("println", BPrintlnChar, tt.Char),
		sysOut("println", BPrintlnEmpty),
		sysOut("print", BPrintString, tt.String),
		sysOut("print", BPrintInt, tt.Int),
		sysOut("print", BPrintLong, tt.Long),
		sysOut("print", BPrintDouble, tt.Double),
		sysOut("print", BPrintBool, tt.Boolean),
		sysOut("print", BPrintChar, tt.Char),
	}
}()

// HostMethods is the host library's methods. The slice and what it holds
// are shared: a caller reads them and never writes.
func HostMethods() []HostMethod { return hostMethods }

// HostMethodOf is the host method that implements operation id, or nil.
func HostMethodOf(id BuiltinID) *HostMethod {
	for i := range hostMethods {
		if hostMethods[i].Builtin == id {
			return &hostMethods[i]
		}
	}
	return nil
}

// hostMethodFor is the index in hostMethods of the operation that
// method-table entry mr names by its owner, name, parameters, result and
// staticness; -1 for none.
func hostMethodFor(mr *MethodRef) int {
	for i := range hostMethods {
		h := &hostMethods[i]
		if h.Owner == mr.Owner && h.Name == mr.Name && h.Result == mr.Result &&
			h.Static == mr.Static && slices.Equal(h.Params, mr.Params) {
			return i
		}
	}
	return -1
}

// ImplicitType is the entry id of the implicit prefix every type table
// starts with, or nil. The entry is shared by every table and never
// written.
func ImplicitType(id TypeID) *Type {
	if int(id) >= implicit.ImplicitLen {
		return nil
	}
	return implicit.Get(id)
}
