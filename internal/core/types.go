// Package core defines the SafeTSA intermediate representation — the
// paper's primary contribution. A SafeTSA module carries a type table
// (with the safe-ref and safe-index shadow types that make memory access
// intrinsically safe), per-class field/method tables, and one function
// per method body. Function bodies are Control Structure Trees whose
// leaves are basic blocks of type-separated SSA instructions.
//
// In memory, operands are value IDs; the (l, r) dominator-relative pairs
// of the paper appear only in the wire format (package wire), where they
// make ill-formed references inexpressible.
package core

import "fmt"

// TypeID indexes the module's type table. ID 0 is reserved/invalid.
type TypeID int32

// NoType marks "no type" (e.g. the result of a void call).
const NoType TypeID = 0

// TypeKind discriminates type-table entries.
type TypeKind uint8

// The kinds of type-table entries. TSafeRef and TSafeIndex are the shadow
// types of section 4 of the paper: TSafeRef(T) holds null-checked values
// of reference type T; TSafeIndex(A) holds index values checked against a
// specific array value of array type A (the binding to the array value is
// carried on each safe-index instruction result, per Appendix A).
const (
	TInvalid TypeKind = iota
	TVoid
	TInt
	TLong
	TDouble
	TBoolean
	TChar
	TClass     // a reference (class) type
	TArray     // an array type; Elem is the element type
	TSafeRef   // null-checked view of Base (a TClass or TArray type)
	TSafeIndex // checked-index view for arrays of type Base (a TArray)
	TMem       // the artificial memory state type (optimizer-internal)
)

// Type is one entry of the module type table.
type Type struct {
	ID   TypeID
	Kind TypeKind
	// Name is the class name for TClass entries.
	Name string
	// Elem is the element type of TArray entries.
	Elem TypeID
	// Base is the underlying type of TSafeRef/TSafeIndex entries.
	Base TypeID
	// Super is the superclass of TClass entries (NoType for Object).
	Super TypeID
	// Imported marks entries of the implicit, tamper-proof part of the
	// type table (primitives and host classes); they are never
	// transmitted.
	Imported bool
}

// String renders the type for diagnostics and dumps.
func (t *Type) String() string {
	switch t.Kind {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TLong:
		return "long"
	case TDouble:
		return "double"
	case TBoolean:
		return "boolean"
	case TChar:
		return "char"
	case TClass:
		return t.Name
	case TMem:
		return "mem"
	}
	return fmt.Sprintf("type#%d", t.ID)
}

// TypeTable is the module's type table. The implicit prefix (primitives,
// imported host classes, and their safe-ref types) is identical on the
// producer and consumer and is regenerated rather than transmitted; only
// user classes and the derived array/safe types they introduce are part
// of the distribution unit.
type TypeTable struct {
	ByID []*Type // index 0 unused

	// Fixed implicit entries.
	Void, Int, Long, Double, Boolean, Char, Mem TypeID
	Object, String, Throwable, Exception        TypeID
	NPE, Arith, Bounds, Cast, NegSize           TypeID

	arrays   map[TypeID]TypeID // elem -> array; nil until the first
	safeRefs []TypeID          // base -> safe-ref, NoType for none
	safeIdxs map[TypeID]TypeID // array -> safe-index; nil until the first
	classes  map[string]TypeID // user classes by name; nil until the first
	// ImplicitLen is the number of table entries (including index 0)
	// that belong to the implicit prefix.
	ImplicitLen int
}

// implicit is the implicit prefix, built once per process: every table
// starts as a copy of its fixed fields, of its entry and shadow vectors —
// whose Types, imported and never written, all tables share — and reads
// its classes by name through implicitClasses.
var implicit, implicitClasses = newImplicit()

func newImplicit() (*TypeTable, map[string]TypeID) {
	tt := &TypeTable{}
	classes := make(map[string]TypeID)
	tt.ByID = append(tt.ByID, nil) // slot 0 invalid

	add := func(t *Type) TypeID {
		t.ID = TypeID(len(tt.ByID))
		t.Imported = true
		tt.ByID = append(tt.ByID, t)
		return t.ID
	}
	tt.Void = add(&Type{Kind: TVoid})
	tt.Int = add(&Type{Kind: TInt})
	tt.Long = add(&Type{Kind: TLong})
	tt.Double = add(&Type{Kind: TDouble})
	tt.Boolean = add(&Type{Kind: TBoolean})
	tt.Char = add(&Type{Kind: TChar})
	tt.Mem = add(&Type{Kind: TMem})

	cls := func(name string, super TypeID) TypeID {
		id := add(&Type{Kind: TClass, Name: name, Super: super})
		classes[name] = id
		return id
	}
	tt.Object = cls("Object", NoType)
	tt.String = cls("String", tt.Object)
	tt.Throwable = cls("Throwable", tt.Object)
	tt.Exception = cls("Exception", tt.Throwable)
	tt.NPE = cls("NullPointerException", tt.Exception)
	tt.Arith = cls("ArithmeticException", tt.Exception)
	tt.Bounds = cls("IndexOutOfBoundsException", tt.Exception)
	tt.Cast = cls("ClassCastException", tt.Exception)
	tt.NegSize = cls("NegativeArraySizeException", tt.Exception)

	// Safe-ref shadows for the imported reference types, in table
	// order, so both ends agree on their IDs.
	for id := TypeID(1); id < TypeID(len(tt.ByID)); id++ {
		t := tt.ByID[id]
		if t.Kind == TClass {
			tt.shadow(id, add(&Type{Kind: TSafeRef, Base: id}))
		}
	}
	tt.ImplicitLen = len(tt.ByID)
	return tt, classes
}

// NewTypeTable creates a table populated with the implicit prefix.
func NewTypeTable() *TypeTable {
	tt := new(TypeTable)
	*tt = *implicit
	tt.ByID = append(make([]*Type, 0, 2*len(implicit.ByID)), implicit.ByID...)
	tt.safeRefs = append(make([]TypeID, 0, 2*len(implicit.safeRefs)), implicit.safeRefs...)
	return tt
}

// Get returns the type with the given ID, or nil when out of range.
func (tt *TypeTable) Get(id TypeID) *Type {
	if id <= 0 || int(id) >= len(tt.ByID) {
		return nil
	}
	return tt.ByID[id]
}

// MustGet returns the type with the given ID and panics on a bad ID; use
// only after verification.
func (tt *TypeTable) MustGet(id TypeID) *Type {
	t := tt.Get(id)
	if t == nil {
		panic(fmt.Sprintf("core: invalid type id %d", id))
	}
	return t
}

// AddClass appends a user class entry; super must already exist.
func (tt *TypeTable) AddClass(name string, super TypeID) TypeID {
	if id := tt.Class(name); id != NoType {
		return id
	}
	t := &Type{Kind: TClass, Name: name, Super: super, ID: TypeID(len(tt.ByID))}
	tt.ByID = append(tt.ByID, t)
	if tt.classes == nil {
		tt.classes = make(map[string]TypeID)
	}
	tt.classes[name] = t.ID
	// Every reference type gets its safe-ref shadow immediately, so
	// shadow IDs are a deterministic function of creation order.
	tt.shadow(t.ID, tt.addDerived(&Type{Kind: TSafeRef, Base: t.ID}))
	return t.ID
}

func (tt *TypeTable) addDerived(t *Type) TypeID {
	t.ID = TypeID(len(tt.ByID))
	tt.ByID = append(tt.ByID, t)
	return t.ID
}

// Class returns the ID of a class by name (0 if absent).
func (tt *TypeTable) Class(name string) TypeID {
	if id, ok := implicitClasses[name]; ok {
		return id
	}
	return tt.classes[name]
}

// ArrayOf returns (creating on first use) the array type with the given
// element type, plus its safe-ref and safe-index shadows.
func (tt *TypeTable) ArrayOf(elem TypeID) TypeID {
	if id, ok := tt.arrays[elem]; ok {
		return id
	}
	id := tt.addDerived(&Type{Kind: TArray, Elem: elem, Super: tt.Object})
	if tt.arrays == nil {
		tt.arrays, tt.safeIdxs = make(map[TypeID]TypeID), make(map[TypeID]TypeID)
	}
	tt.arrays[elem] = id
	tt.shadow(id, tt.addDerived(&Type{Kind: TSafeRef, Base: id}))
	tt.safeIdxs[id] = tt.addDerived(&Type{Kind: TSafeIndex, Base: id})
	return id
}

// shadow records sid as the safe-ref shadow of base.
func (tt *TypeTable) shadow(base, sid TypeID) {
	if n := int(base) + 1; n > len(tt.safeRefs) {
		tt.safeRefs = append(tt.safeRefs, make([]TypeID, n-len(tt.safeRefs))...)
	}
	tt.safeRefs[base] = sid
}

// SafeRefOf returns the safe-ref shadow of a reference type.
func (tt *TypeTable) SafeRefOf(ref TypeID) TypeID {
	if uint(ref) < uint(len(tt.safeRefs)) && tt.safeRefs[ref] != NoType {
		return tt.safeRefs[ref]
	}
	panic(fmt.Sprintf("core: no safe-ref shadow for type %d (%s)", ref, tt.MustGet(ref)))
}

// SafeIndexOf returns the safe-index shadow of an array type.
func (tt *TypeTable) SafeIndexOf(arr TypeID) TypeID {
	id, ok := tt.safeIdxs[arr]
	if !ok {
		panic(fmt.Sprintf("core: no safe-index shadow for type %d", arr))
	}
	return id
}

// IsRefType reports whether id names a class or array type.
func (tt *TypeTable) IsRefType(id TypeID) bool {
	t := tt.Get(id)
	return t != nil && (t.Kind == TClass || t.Kind == TArray)
}

// BaseRef strips one safe-ref shadow: SafeRef(T) -> T; other types map to
// themselves.
func (tt *TypeTable) BaseRef(id TypeID) TypeID {
	t := tt.MustGet(id)
	if t.Kind == TSafeRef {
		return t.Base
	}
	return id
}

// IsSubclass reports whether class/array type a is b or a transitive
// subclass of b (arrays are only subtypes of Object).
func (tt *TypeTable) IsSubclass(a, b TypeID) bool {
	if a == b {
		return true
	}
	ta := tt.Get(a)
	if ta == nil {
		return false
	}
	if ta.Kind == TArray {
		return b == tt.Object
	}
	for x := ta; x != nil; {
		if x.ID == b {
			return true
		}
		if x.Super == NoType {
			return false
		}
		x = tt.Get(x.Super)
	}
	return false
}

// Describe renders any type including shadow types for dumps.
func (tt *TypeTable) Describe(id TypeID) string {
	t := tt.Get(id)
	if t == nil {
		return fmt.Sprintf("?type%d", id)
	}
	switch t.Kind {
	case TArray:
		return tt.Describe(t.Elem) + "[]"
	case TSafeRef:
		return "safe-" + tt.Describe(t.Base)
	case TSafeIndex:
		return "safe-index-" + tt.Describe(t.Base)
	default:
		return t.String()
	}
}
