package core

// Whole-module hierarchy and call-graph queries. The wire format ships
// complete distribution units — every class a unit defines travels with
// it, imported host classes are tamper-proof, and nothing can extend a
// unit's classes from outside (the type table is sealed at decode time).
// That closed-world property is what makes class-hierarchy analysis over
// one Module sound, and these queries are the substrate of the
// interprocedural optimizer tier (devirtualization, inlining).

// Subclasses returns the module's class definitions whose type is a
// reflexive subclass of root, in Classes order. The definitions stand in
// type order, which puts every superclass before its subclasses, so one
// pass decides each class by its superclass: a class is in when it is
// root or its superclass is — a unit class already decided, or an
// imported one the type table puts under root. The set of classes in is
// on the stack for a table of up to 512 types.
func (m *Module) Subclasses(root TypeID) []*ClassDef {
	var small [8]uint64
	in := small[:]
	if n := (len(m.Types.ByID) + 63) / 64; n > len(in) {
		in = make([]uint64, n)
	}
	var out []*ClassDef
	for _, cd := range m.Classes {
		s, unit := uint(cd.Super), m.unitClass(cd.Super)
		if cd.Type == root || unit && in[s/64]&(1<<(s%64)) != 0 || !unit && m.Types.IsSubclass(cd.Super, root) {
			in[cd.Type/64] |= 1 << (cd.Type % 64)
			out = append(out, cd)
		}
	}
	return out
}

// InstantiatedClasses returns the set of class types the module can ever
// instantiate: the TypeArg of every OpNew in any function (rapid type
// analysis). Host-allocated objects (strings, runtime exceptions) are
// instances of imported classes, which user classes cannot subclass, so
// for dispatch sites rooted at a unit-defined class this set covers
// every possible runtime receiver class.
func (m *Module) InstantiatedClasses() map[TypeID]bool {
	inst := make(map[TypeID]bool)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op == OpNew {
					inst[in.TypeArg] = true
				}
			}
		}
	}
	return inst
}

// MonomorphicTarget resolves a dispatch through the method-table entry
// at index method to its unique implementation, if one exists: every
// candidate receiver class (reflexive subclasses of the owner,
// restricted to instantiated when non-nil) must name the same
// method-table index in its dispatch-table slot. It returns -1 when the
// site is not provably monomorphic: a polymorphic slot, no candidate
// receiver class at all, an owner outside the unit (imported classes can
// have host-implemented instances the dispatch tables do not describe),
// or a malformed slot.
func (m *Module) MonomorphicTarget(method int32, instantiated map[TypeID]bool) int32 {
	if method < 0 || int(method) >= len(m.Methods) {
		return -1
	}
	mr := &m.Methods[method]
	if mr.VSlot < 0 {
		return -1
	}
	owner := m.Types.Get(mr.Owner)
	if owner == nil || owner.Imported {
		return -1
	}
	target := int32(-1)
	for _, cd := range m.Subclasses(mr.Owner) {
		if instantiated != nil && !instantiated[cd.Type] {
			continue
		}
		if int(mr.VSlot) >= len(cd.VTable) {
			return -1
		}
		t := cd.VTable[mr.VSlot]
		if target == -1 {
			target = t
		} else if target != t {
			return -1
		}
	}
	return target
}

// CallGraph returns, per function, the unit-local functions it can call:
// direct xcall bodies plus, for each xdispatch site, every
// implementation a possible receiver class could select. Imported
// callees (no body in the unit) do not appear.
func (m *Module) CallGraph() map[*Func][]*Func {
	cg := make(map[*Func][]*Func, len(m.Funcs))
	for _, f := range m.Funcs {
		seen := make(map[*Func]bool)
		var callees []*Func
		add := func(g *Func) {
			if g != nil && !seen[g] {
				seen[g] = true
				callees = append(callees, g)
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				switch in.Op {
				case OpXCall:
					add(m.FuncOf(in.Method))
				case OpXDispatch:
					if in.Method < 0 || int(in.Method) >= len(m.Methods) {
						continue
					}
					mr := &m.Methods[in.Method]
					if mr.VSlot < 0 {
						continue
					}
					for _, cd := range m.Subclasses(mr.Owner) {
						if int(mr.VSlot) < len(cd.VTable) {
							add(m.FuncOf(cd.VTable[mr.VSlot]))
						}
					}
				}
			}
		}
		cg[f] = callees
	}
	return cg
}

// RecursiveFuncs returns the functions that can reach themselves through
// the call graph — the ones an inliner must refuse, since expanding them
// never terminates. Indirectly recursive functions (f → g → f) are
// included.
func (m *Module) RecursiveFuncs() map[*Func]bool {
	cg := m.CallGraph()
	rec := make(map[*Func]bool)
	for _, f := range m.Funcs {
		seen := make(map[*Func]bool)
		stack := append([]*Func(nil), cg[f]...)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if g == f {
				rec[f] = true
				break
			}
			if seen[g] {
				continue
			}
			seen[g] = true
			stack = append(stack, cg[g]...)
		}
	}
	return rec
}
