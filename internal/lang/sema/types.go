// Package sema implements the semantic analysis of TJ: class graph
// construction, name resolution, overload resolution, and type checking.
// Its output — the typed AST plus the Program symbol tables — is the
// "Unified Abstract Syntax Tree" that the SSA generator consumes.
package sema

import (
	"fmt"
	"slices"

	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
)

// TypeKind partitions the TJ type universe.
type TypeKind int

// The type kinds. KindNull is the type of the null literal, assignable to
// every reference type.
const (
	KindInt TypeKind = iota
	KindLong
	KindDouble
	KindBoolean
	KindChar
	KindVoid
	KindNull
	KindClass
	KindArray
)

// Type is a canonicalized TJ type: two types are identical iff their
// pointers are equal.
type Type struct {
	Kind  TypeKind
	Class *Class // for KindClass
	Elem  *Type  // for KindArray
	name  string
}

// String returns the Java-style spelling of the type.
func (t *Type) String() string {
	switch t.Kind {
	case KindClass:
		return t.Class.Name
	case KindArray:
		return t.Elem.String() + "[]"
	default:
		return t.name
	}
}

// IsNumeric reports whether t participates in arithmetic (int, long,
// double, char).
func (t *Type) IsNumeric() bool {
	switch t.Kind {
	case KindInt, KindLong, KindDouble, KindChar:
		return true
	}
	return false
}

// IsIntegral reports whether t is int, long, or char.
func (t *Type) IsIntegral() bool {
	switch t.Kind {
	case KindInt, KindLong, KindChar:
		return true
	}
	return false
}

// IsRef reports whether t is a reference type (class, array, or null).
func (t *Type) IsRef() bool {
	switch t.Kind {
	case KindClass, KindArray, KindNull:
		return true
	}
	return false
}

// Class describes a TJ class: a user class, or one of the imported host
// classes (Object, String, the exception hierarchy).
type Class struct {
	Name     string
	Super    *Class // nil only for Object
	Imported bool   // host-environment class; its type-table entries are implicit

	Fields  []*FieldSym  // declared fields, in declaration order
	Methods []*MethodSym // declared methods (not ctors)
	Ctors   []*MethodSym

	Decl *ast.ClassDecl // nil for imported classes

	// depth is 1 + the number of superclasses once linkHierarchy has
	// walked the class, 0 before and onWalk during its walk.
	depth int
	typ   *Type
}

// IsSubclassOf reports whether c is d or a (transitive) subclass of d.
func (c *Class) IsSubclassOf(d *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == d {
			return true
		}
	}
	return false
}

// LookupField finds the named instance or static field in c or its
// superclasses.
func (c *Class) LookupField(name string) *FieldSym {
	for x := c; x != nil; x = x.Super {
		for _, f := range x.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// MethodsNamed collects all methods with the given name along the
// superclass chain, nearest first, skipping overridden duplicates.
func (c *Class) MethodsNamed(name string) []*MethodSym {
	var out []*MethodSym
	for x := c; x != nil; x = x.Super {
		for _, m := range x.Methods {
			if m.Name != name {
				continue
			}
			overridden := false
			for _, seen := range out {
				if seen.SameSignature(m) {
					overridden = true
					break
				}
			}
			if !overridden {
				out = append(out, m)
			}
		}
	}
	return out
}

// SameSignature reports whether m and o have one name and one list of
// parameter types: a virtual method overrides the inherited one it shares
// a signature with.
func (m *MethodSym) SameSignature(o *MethodSym) bool {
	return m.Name == o.Name && slices.Equal(m.Params, o.Params)
}

// FieldSym is a resolved field.
type FieldSym struct {
	Name   string
	Type   *Type
	Static bool
	Final  bool
	Owner  *Class
	Init   ast.Expr // may be nil
}

// QName returns Owner.Name for diagnostics and symbol tables.
func (f *FieldSym) QName() string { return f.Owner.Name + "." + f.Name }

// BuiltinID identifies a natively-implemented imported method or
// primitive operation of the host environment: the host library's
// numbering (core.HostMethods), which both ends of the wire share.
type BuiltinID = core.BuiltinID

// MethodSym is a resolved method or constructor.
type MethodSym struct {
	Name   string
	Params []*Type
	Return *Type
	Static bool
	IsCtor bool
	Owner  *Class
	Decl   *ast.MethodDecl // nil for imported and synthetic methods
	// Synthetic marks the compiler-generated default constructor of a
	// user class; its body is a super() call plus field initializers.
	Synthetic bool
}

// QName returns Owner.Name + "." + Name for diagnostics.
func (m *MethodSym) QName() string { return m.Owner.Name + "." + m.Name }

// Sig renders the full signature for diagnostics.
func (m *MethodSym) Sig() string {
	s := m.QName() + "("
	for i, p := range m.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	s += ")"
	if m.Return != nil {
		s += " " + m.Return.String()
	}
	return s
}

// Local is a local variable or parameter symbol; SSA construction keys its
// versioned values on the *Local pointer.
type Local struct {
	Name  string
	Type  *Type
	Param bool
	// Index is a stable per-method index, used for deterministic
	// iteration and for baseline local-slot assignment.
	Index int
}

// ClassRef marks an identifier that resolves to a class name (for static
// accesses such as Math.sqrt or A.counter).
type ClassRef struct{ Class *Class }

// Builtin marks a call that resolves to a native host operation.
type Builtin struct {
	ID     BuiltinID
	Name   string
	Params []*Type
	Return *Type
}

// Program is the result of semantic analysis over a set of files.
type Program struct {
	Classes map[string]*Class
	// Order lists the user classes in a stable topological order
	// (superclasses first, then by name).
	Order []*Class

	// Universe types.
	Int, Long, Double, Boolean, Char, Void, Null *Type
	Object, String, Throwable                    *Type

	// Imported exception classes used by implicit checks.
	ClsObject, ClsString, ClsThrowable                 *Class
	ClsException, ClsNPE, ClsArith, ClsBounds, ClsCast *Class
	ClsNegArraySize                                    *Class

	// MethodInfo carries per-method local-variable information for the
	// back ends.
	MethodInfo map[*MethodSym]*MethodInfo
	// DeclLocal maps each local declaration to its symbol.
	DeclLocal map[*ast.VarDeclStmt]*Local
	// CatchLocal maps each catch clause to the symbol of its exception
	// variable.
	CatchLocal map[*ast.CatchClause]*Local
	// ImplicitSuper maps constructors that do not begin with an
	// explicit super(...) call to the resolved no-arg superclass
	// constructor.
	ImplicitSuper map[*MethodSym]*MethodSym
	// InstanceOfType maps each instanceof expression to its resolved
	// tested type.
	InstanceOfType map[*ast.InstanceOf]*Type

	arrays map[*Type]*Type
}

// MethodInfo lists the locals of one method body.
type MethodInfo struct {
	Params []*Local
	Locals []*Local // all locals including params, in creation order
}

// ArrayOf returns the canonical array type with the given element type.
func (p *Program) ArrayOf(elem *Type) *Type {
	if t, ok := p.arrays[elem]; ok {
		return t
	}
	t := &Type{Kind: KindArray, Elem: elem}
	p.arrays[elem] = t
	return t
}

// ClassType returns the canonical type of a class.
func (p *Program) ClassType(c *Class) *Type {
	if c.typ == nil {
		c.typ = &Type{Kind: KindClass, Class: c}
	}
	return c.typ
}

// UserClasses returns the non-imported classes: Program.Order.
func (p *Program) UserClasses() []*Class { return p.Order }

// Widens reports whether a value of type 'from' widens implicitly to
// 'to' (numeric widening, null→ref, subclass→superclass, identity).
func (p *Program) Widens(from, to *Type) bool {
	if from == to {
		return true
	}
	switch {
	case from.Kind == KindNull && to.IsRef() && to.Kind != KindNull:
		return true
	case from.Kind == KindChar && (to.Kind == KindInt || to.Kind == KindLong || to.Kind == KindDouble):
		return true
	case from.Kind == KindInt && (to.Kind == KindLong || to.Kind == KindDouble):
		return true
	case from.Kind == KindLong && to.Kind == KindDouble:
		return true
	case from.Kind == KindClass && to.Kind == KindClass:
		return from.Class.IsSubclassOf(to.Class)
	case from.Kind == KindArray && to.Kind == KindClass:
		return to.Class == p.ClsObject
	}
	return false
}

// Promote computes the binary numeric promotion of two numeric types.
func (p *Program) Promote(a, b *Type) *Type {
	if a.Kind == KindDouble || b.Kind == KindDouble {
		return p.Double
	}
	if a.Kind == KindLong || b.Kind == KindLong {
		return p.Long
	}
	return p.Int
}

// Error is a semantic error with position information.
type Error struct {
	Pos interface{ String() string }
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }
