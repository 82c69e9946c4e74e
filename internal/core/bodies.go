package core

import "slices"

// The body rule (DESIGN.md §11, "The head names only what the consumer
// cannot derive"). A unit's bodies stand in one order that both ends read
// off the tables, so the wire carries no index into them:
//
//   - the class definitions are the type table's unit classes, in type
//     order;
//   - function j is first the static initializers, one per class
//     definition that has one, in class order;
//   - then the bodies of the unit's methods — the methods a unit class
//     owns — in method-table order; an imported method has none;
//   - the entry is the first static unit method main() or main(String[])
//     in table order, -1 for none.
//
// So each method's FuncIdx, Module.StaticInit, the function count and
// Module.Entry follow from the tables and which classes have a static
// initializer, which is all a unit says of them. The producer orders its
// bodies by the rule (PlaceBodies); admission installs it over whatever
// the tables carried (DeriveTables), and Admission.Link refuses a body
// that stands where the rule places another.

// bodyRule walks the rule over m's tables, in which StaticInit[k] >= 0
// says that class definition k has a static initializer: place is called
// with each function index in turn and its claim (Func.Claim). It returns
// the function count and the entry method.
func (m *Module) bodyRule(place func(j, claim int32)) (n, entry int32) {
	entry = -1
	for k, si := range m.StaticInit {
		if si >= 0 {
			place(n, int32(-1-k))
			n++
		}
	}
	for i := range m.Methods {
		mr := &m.Methods[i]
		if !m.unitClass(mr.Owner) {
			continue
		}
		place(n, int32(i))
		n++
		if entry < 0 && m.isMain(mr) {
			entry = int32(i)
		}
	}
	return n, entry
}

// NumBodies is the function count the body rule gives m's tables.
func (m *Module) NumBodies() int {
	n, _ := m.bodyRule(func(int32, int32) {})
	return int(n)
}

// isMain reports whether mr is a static method main() or main(String[]).
func (m *Module) isMain(mr *MethodRef) bool {
	if !mr.Static || mr.IsCtor || mr.Name != "main" {
		return false
	}
	switch len(mr.Params) {
	case 0:
		return true
	case 1:
		t := m.Types.Get(mr.Params[0])
		return t != nil && t.Kind == TArray && t.Elem == m.Types.String
	}
	return false
}

// unitClass reports whether t is a class of m's own, not imported.
func (m *Module) unitClass(t TypeID) bool {
	return int(t) >= m.Types.ImplicitLen && int(t) < len(m.Types.ByID) && m.Types.ByID[t].Kind == TClass
}

// PlaceBodies puts m's bodies where the body rule places them: it sets
// each method's FuncIdx, m.StaticInit — a class has a static initializer
// when a body claims one — and m.Entry from the tables, and orders m.Funcs
// by place. A body whose claim the rule places nowhere, or where another
// body already stands, goes after the placed ones. It is for a producer
// and for modules built by hand; the class definitions must already stand
// in type order.
func (m *Module) PlaceBodies() {
	if len(m.StaticInit) != len(m.Classes) {
		m.StaticInit = make([]int32, len(m.Classes))
	}
	for k := range m.StaticInit {
		m.StaticInit[k] = -1
	}
	for _, f := range m.Funcs {
		if k := -1 - int(f.Claim); k >= 0 && k < len(m.StaticInit) {
			m.StaticInit[k] = 0
		}
	}
	for i := range m.Methods {
		m.Methods[i].FuncIdx = -1
	}
	n, entry := m.bodyRule(func(j, c int32) { m.setPlace(c, j) })
	m.Entry = entry

	placed := make([]*Func, n)
	var rest []*Func
	for _, f := range m.Funcs {
		if j := m.ClaimedIndex(f.Claim); j >= 0 && placed[j] == nil {
			placed[j] = f
		} else {
			rest = append(rest, f)
		}
	}
	m.Funcs = append(slices.DeleteFunc(placed, func(f *Func) bool { return f == nil }), rest...)
}

// setPlace records that claim c is function j.
func (m *Module) setPlace(c, j int32) {
	if c >= 0 {
		m.Methods[c].FuncIdx = j
	} else {
		m.StaticInit[-1-c] = j
	}
}
