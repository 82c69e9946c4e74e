package sema

import (
	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
)

// newUniverse creates the Program skeleton with the primitive types and
// the imported host classes: Object, String, and the exception hierarchy.
// These mirror the paper's "types imported from the host environment's
// libraries", whose type-table entries are generated implicitly and are
// therefore tamper-proof.
func newUniverse() *Program {
	p := &Program{
		Classes:        make(map[string]*Class),
		arrays:         make(map[*Type]*Type),
		MethodInfo:     make(map[*MethodSym]*MethodInfo),
		DeclLocal:      make(map[*ast.VarDeclStmt]*Local),
		CatchLocal:     make(map[*ast.CatchClause]*Local),
		ImplicitSuper:  make(map[*MethodSym]*MethodSym),
		InstanceOfType: make(map[*ast.InstanceOf]*Type),
		Int:            &Type{Kind: KindInt, name: "int"},
		Long:           &Type{Kind: KindLong, name: "long"},
		Double:         &Type{Kind: KindDouble, name: "double"},
		Boolean:        &Type{Kind: KindBoolean, name: "boolean"},
		Char:           &Type{Kind: KindChar, name: "char"},
		Void:           &Type{Kind: KindVoid, name: "void"},
		Null:           &Type{Kind: KindNull, name: "null"},
	}

	obj := &Class{Name: "Object", Imported: true}
	p.ClsObject = obj
	p.Object = p.ClassType(obj)
	p.Classes["Object"] = obj

	str := &Class{Name: "String", Super: obj, Imported: true}
	p.ClsString = str
	p.String = p.ClassType(str)
	p.Classes["String"] = str

	throwable := &Class{Name: "Throwable", Super: obj, Imported: true}
	p.ClsThrowable = throwable
	p.Throwable = p.ClassType(throwable)
	p.Classes["Throwable"] = throwable

	exc := &Class{Name: "Exception", Super: throwable, Imported: true}
	p.ClsException = exc
	p.Classes["Exception"] = exc

	mkExc := func(name string) *Class {
		c := &Class{Name: name, Super: exc, Imported: true}
		p.Classes[name] = c
		return c
	}
	p.ClsNPE = mkExc("NullPointerException")
	p.ClsArith = mkExc("ArithmeticException")
	p.ClsBounds = mkExc("IndexOutOfBoundsException")
	p.ClsCast = mkExc("ClassCastException")
	p.ClsNegArraySize = mkExc("NegativeArraySizeException")

	// The imported classes' methods are the host library's
	// (core.HostMethods), which the consumer binds imported methods by.
	for _, h := range core.HostMethods() {
		if h.Static {
			continue
		}
		owner := p.Classes[core.ImplicitType(h.Owner).Name]
		owner.Methods = append(owner.Methods, &MethodSym{Name: h.Name, Params: p.hostTypes(h.Params),
			Return: p.hostType(h.Result), Owner: owner})
	}
	obj.Ctors = []*MethodSym{
		{Name: "Object", IsCtor: true, Return: p.Void, Owner: obj},
	}

	// Throwable/Exception: a message field, which getMessage reads.
	throwable.Fields = []*FieldSym{
		{Name: "message", Type: p.String, Owner: throwable},
	}
	throwable.Ctors = []*MethodSym{
		{Name: "Throwable", IsCtor: true, Return: p.Void, Owner: throwable},
		{Name: "Throwable", IsCtor: true, Params: []*Type{p.String}, Return: p.Void, Owner: throwable},
	}
	for _, c := range []*Class{exc, p.ClsNPE, p.ClsArith, p.ClsBounds, p.ClsCast, p.ClsNegArraySize} {
		c.Ctors = []*MethodSym{
			{Name: c.Name, IsCtor: true, Return: p.Void, Owner: c},
			{Name: c.Name, IsCtor: true, Params: []*Type{p.String}, Return: p.Void, Owner: c},
		}
	}

	return p
}

// mathBuiltins maps Math.<name> overload sets.
func (p *Program) mathBuiltins(name string) []*Builtin {
	b := func(id core.BuiltinID, ret *Type, params ...*Type) *Builtin {
		return &Builtin{ID: id, Name: "Math." + name, Params: params, Return: ret}
	}
	switch name {
	case "sqrt":
		return []*Builtin{b(core.BMathSqrt, p.Double, p.Double)}
	case "abs":
		return []*Builtin{
			b(core.BMathAbsI, p.Int, p.Int),
			b(core.BMathAbsL, p.Long, p.Long),
			b(core.BMathAbsD, p.Double, p.Double),
		}
	case "min":
		return []*Builtin{
			b(core.BMathMinI, p.Int, p.Int, p.Int),
			b(core.BMathMinL, p.Long, p.Long, p.Long),
			b(core.BMathMinD, p.Double, p.Double, p.Double),
		}
	case "max":
		return []*Builtin{
			b(core.BMathMaxI, p.Int, p.Int, p.Int),
			b(core.BMathMaxL, p.Long, p.Long, p.Long),
			b(core.BMathMaxD, p.Double, p.Double, p.Double),
		}
	case "pow":
		return []*Builtin{b(core.BMathPow, p.Double, p.Double, p.Double)}
	case "floor":
		return []*Builtin{b(core.BMathFloor, p.Double, p.Double)}
	case "ceil":
		return []*Builtin{b(core.BMathCeil, p.Double, p.Double)}
	case "log":
		return []*Builtin{b(core.BMathLog, p.Double, p.Double)}
	case "exp":
		return []*Builtin{b(core.BMathExp, p.Double, p.Double)}
	case "sin":
		return []*Builtin{b(core.BMathSin, p.Double, p.Double)}
	case "cos":
		return []*Builtin{b(core.BMathCos, p.Double, p.Double)}
	}
	return nil
}

// printBuiltins maps System.out.<name> overload sets: the host
// library's static methods of that name.
func (p *Program) printBuiltins(name string) []*Builtin {
	var out []*Builtin
	for _, h := range core.HostMethods() {
		if h.Static && h.Name == "System.out."+name {
			out = append(out, &Builtin{ID: h.Builtin, Name: h.Name, Params: p.hostTypes(h.Params), Return: p.hostType(h.Result)})
		}
	}
	return out
}

// hostType is the universe's type for an entry of the implicit type-table
// prefix the host library is declared in.
func (p *Program) hostType(id core.TypeID) *Type {
	t := core.ImplicitType(id)
	switch t.Kind {
	case core.TVoid:
		return p.Void
	case core.TInt:
		return p.Int
	case core.TLong:
		return p.Long
	case core.TDouble:
		return p.Double
	case core.TBoolean:
		return p.Boolean
	case core.TChar:
		return p.Char
	case core.TClass:
		return p.ClassType(p.Classes[t.Name])
	}
	panic("sema: host library type without a universe type: " + t.String())
}

func (p *Program) hostTypes(ids []core.TypeID) []*Type {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Type, len(ids))
	for i, id := range ids {
		out[i] = p.hostType(id)
	}
	return out
}
