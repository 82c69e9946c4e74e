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
// from this table; a unit names an imported method by its place in the
// table (ImportedSymbol), and the consumer copies the entry from here
// (ImportedMethod), so a unit cannot bind a method to an operation of
// another shape. Admission binds each imported method-table entry to the
// operation whose owner, name, parameters, result and staticness it names
// (Module.DeriveTables), which for a decoded entry is the one it was
// copied from.
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

// The imported methods a unit may name are an alphabet both ends hold
// (DESIGN.md §11): an imported class's methods in hostMethods, in table
// order, then its constructor forms — the one of no argument and, for a
// throwable, the one of a message. A unit names an imported method by
// its owner and its symbol in the owner's alphabet, and the consumer
// copies the entry from here, so no imported entry can name an operation
// the host does not have. The order is wire meaning.

// hostOwned lists, by imported type, the indices in hostMethods of the
// methods it owns.
var hostOwned = func() [][]int32 {
	out := make([][]int32, implicit.ImplicitLen)
	for i, h := range hostMethods {
		out[h.Owner] = append(out[h.Owner], int32(i))
	}
	return out
}()

// messageParams is the parameter list of a throwable's message
// constructor, shared by every entry that names it.
var messageParams = []TypeID{implicit.String}

// ImportedMethods is the size of imported class owner's alphabet: its
// host methods and its constructor forms; 0 for any other type.
func ImportedMethods(owner TypeID) int {
	t := ImplicitType(owner)
	if t == nil || t.Kind != TClass {
		return 0
	}
	if implicit.IsSubclass(owner, implicit.Throwable) {
		return len(hostOwned[owner]) + 2
	}
	return len(hostOwned[owner]) + 1
}

// ImportedMethod is the method-table entry symbol s < ImportedMethods(owner)
// of owner's alphabet names. Its parameter list is the host library's,
// which the caller reads and never writes.
func ImportedMethod(owner TypeID, s int) MethodRef {
	mr := MethodRef{Owner: owner, VSlot: -1, FuncIdx: -1}
	if hs := hostOwned[owner]; s < len(hs) {
		h := &hostMethods[hs[s]]
		mr.Name, mr.Params, mr.Result, mr.Static, mr.Builtin = h.Name, h.Params, h.Result, h.Static, h.Builtin
		return mr
	} else if s > len(hs) {
		mr.Params = messageParams
	}
	mr.Name, mr.Result, mr.IsCtor = implicit.ByID[owner].Name, implicit.Void, true
	return mr
}

// ImportedSymbol is the symbol of imported entry mr in its owner's
// alphabet: the host method of its name, parameters, result and
// staticness, or the constructor form of its parameters; -1 for none.
func ImportedSymbol(mr *MethodRef) int {
	n := ImportedMethods(mr.Owner)
	switch {
	case n == 0:
		return -1
	case mr.IsCtor:
		if mr.Static {
			return -1
		}
		if len(mr.Params) == 0 {
			return len(hostOwned[mr.Owner])
		}
		if n > len(hostOwned[mr.Owner])+1 && slices.Equal(mr.Params, messageParams) {
			return n - 1
		}
		return -1
	}
	return slices.Index(hostOwned[mr.Owner], int32(hostMethodFor(mr)))
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
