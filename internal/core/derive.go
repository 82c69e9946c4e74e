package core

import "slices"

// What a consumer derives rather than reads (DESIGN.md §11, "The tables
// say only what the consumer cannot derive"). A JVM class loader computes
// an object's layout and its dispatch table from the class hierarchy and
// the signatures; so does admission, from the type table, the field and
// method tables and the host library (HostMethods):
//
//   - Layout: each field's Slot, in table order among its owner's
//     instance or static fields, instance slots after the superclass's;
//     each class's NumSlots (its superclass's plus its own instance
//     fields) and NumStatics.
//   - Member lists: ClassDef.Fields and ClassDef.Methods, the table entries
//     the class owns, in table order.
//   - Dispatch: ClassDef.VTable and each method's VSlot. A class starts
//     from its superclass's table; a virtual method of the class replaces
//     the inherited entry of the same name and parameters, whose result
//     it must keep, or else is appended, and may not share a superclass's
//     static method's name and parameters. Statics and constructors have
//     no slot. The imported classes' tables follow the same rule from the
//     host library's methods, derived once per process (hostTables).
//   - Native bindings: each imported method's Builtin, the host operation
//     of the same owner, name, parameters, result and staticness. A
//     method with neither a body nor a host operation is refused.
//
// The wire carries none of it, so a forged layout or binding is
// inexpressible; a module built in process gets the same derivation
// installed over whatever it carried (DeriveTables, which Verify calls).

// maxDispatchWork bounds what deriving a unit's dispatch tables may cost,
// in table entries copied and searched, and in the members of the
// superclasses that declare a static method, searched for one a virtual
// method would override: a deep hierarchy of classes with many methods
// each would otherwise make the consumer's work, and the memory the
// tables take, grow with the square of the unit's size.
const maxDispatchWork = 1 << 22

// hostTables is, by imported class, its dispatch table, each entry -1-i
// for hostMethods[i]; hostSlot is each host method's dispatch slot, -1 for
// a static. They are the same in every unit, so they are derived once per
// process (deriveHostTables), and every derivation copies from them and
// never writes them.
var hostTables, hostSlot = deriveHostTables()

// deriveHostTables derives the imported classes' dispatch tables by the
// rule the unit's classes follow (place, which reads no module for a host
// method's entry). Type-table order puts every superclass before its
// subclasses, and Object's superclass, NoType, has an empty table.
func deriveHostTables() ([][]int32, []int32) {
	tables, slot := make([][]int32, implicit.ImplicitLen), make([]int32, len(hostMethods))
	for t := TypeID(1); int(t) < len(tables); t++ {
		if implicit.ByID[t].Kind != TClass {
			continue
		}
		vt := slices.Clone(tables[implicit.ByID[t].Super])
		for _, h := range hostOwned[t] {
			slot[h] = -1
			if !hostMethods[h].Static {
				vt, slot[h], _ = place(nil, vt, 0, -1-h)
			}
		}
		tables[t] = slices.Clip(vt)
	}
	return tables, slot
}

// derived is the derivation's result, by field, by method and by class
// definition.
type derived struct {
	slot    []int32 // by field
	vslot   []int32 // by method
	builtin []int32 // by method
	classes []derivedClass
	lists   []int32 // the classes' member lists and dispatch tables
}

type derivedClass struct {
	numSlots, numStatics    int32
	fields, methods, vtable span // into derived.lists
	// For dispatchRoom: the class's own virtual and static methods, the
	// members of its unit superclasses that declare a static, and how long
	// its dispatch table can be.
	virtuals, statics, above, bound int32
	// For overridesStatic: the nearest class at or above this one that
	// declares a static method (its definition's index, -1 for none among
	// the unit's), and the imported class the unit classes above it extend.
	staticAt int32
	hostUp   TypeID
}

type span struct{ off, n int32 }

func (d *derived) list(s span) []int32 { return d.lists[s.off : s.off+s.n] }

// derivedMem is the memory a small unit's derivation is made in: its
// caller's stack frame, so a cold decode derives without allocating.
type derivedMem struct {
	scratch [256]int32
	classes [32]derivedClass
	lists   [512]int32
}

// carve returns n elements of buf, or new memory when buf is too short.
func carve[T any](buf []T, n int) []T {
	if n <= len(buf) {
		clear(buf[:n])
		return buf[:n:n]
	}
	return make([]T, n)
}

// derive computes, in mem where it is long enough, what admission derives
// of m's tables. defIdx maps a TypeID to its class definition's
// index in m.Classes, -1 for none; the tables it reads have passed
// DeriveTables' reference checks: every unit class and every field's
// owner has a definition, every method's owner is a class, and
// each definition's superclass is its type's.
func (m *Module) derive(mem *derivedMem, defIdx func(TypeID) int, bad func(string, ...any)) derived {
	nf, nm, nh := len(m.Fields), len(m.Methods), len(hostMethods)
	scratch := carve(mem.scratch[:], nf+2*nm+nh)
	d := derived{
		slot:    scratch[:nf:nf],
		vslot:   scratch[nf : nf+nm : nf+nm],
		builtin: scratch[nf+nm : nf+2*nm : nf+2*nm],
		classes: carve(mem.classes[:], len(m.Classes)),
	}
	// hostAt is 1 + the first method-table entry bound to each host method,
	// 0 for none.
	hostAt := scratch[nf+2*nm:]

	// Member lists: count what each class owns, then fill the lists in
	// table order. A field's slot is first its ordinal among its owner's
	// instance or static fields; the class pass below adds the inherited
	// slots.
	for _, fr := range m.Fields {
		c := &d.classes[defIdx(fr.Owner)]
		c.fields.n++
	}
	for i := range m.Methods {
		if k := defIdx(m.Methods[i].Owner); k >= 0 {
			d.classes[k].methods.n++
			if mr := &m.Methods[i]; mr.Static {
				d.classes[k].statics++
			} else if !mr.IsCtor {
				d.classes[k].virtuals++
			}
		}
	}
	room := m.dispatchRoom(&d, defIdx)
	n := int32(0)
	for k := range d.classes {
		c := &d.classes[k]
		c.fields.off, n = n, n+c.fields.n
		c.methods.off, n = n, n+c.methods.n
		c.fields.n, c.methods.n = 0, 0
	}
	if room += int(n); room <= len(mem.lists) {
		d.lists = mem.lists[:n]
	} else {
		d.lists = make([]int32, n, room)
	}
	for i, fr := range m.Fields {
		c := &d.classes[defIdx(fr.Owner)]
		d.lists[c.fields.off+c.fields.n] = int32(i)
		c.fields.n++
		if fr.Static {
			d.slot[i] = c.numStatics
			c.numStatics++
		} else {
			d.slot[i] = c.numSlots
			c.numSlots++
		}
	}
	for i := range m.Methods {
		if k := defIdx(m.Methods[i].Owner); k >= 0 {
			c := &d.classes[k]
			d.lists[c.methods.off+c.methods.n] = int32(i)
			c.methods.n++
		}
	}

	// Native bindings: an imported method is the host operation of its
	// signature; any other method has a body.
	for i := range m.Methods {
		mr := &m.Methods[i]
		d.vslot[i] = -1
		if mr.IsCtor {
			continue
		}
		if t := m.Types.Get(mr.Owner); t.Imported && t.Kind == TClass {
			if h := hostMethodFor(mr); h >= 0 {
				d.builtin[i], d.vslot[i] = int32(hostMethods[h].Builtin), hostSlot[h]
				if hostAt[h] == 0 {
					hostAt[h] = int32(i) + 1
				}
				continue
			}
		}
		if mr.FuncIdx < 0 {
			bad("method %d (%s): no body and no host operation of its signature", i, mr.Sig(m.Types))
		}
	}

	// The unit's layouts and dispatch tables, in type-table order.
	work := 0
	for t := TypeID(m.Types.ImplicitLen); int(t) < len(m.Types.ByID); t++ {
		k := defIdx(t)
		if k < 0 {
			continue
		}
		c, name, super := &d.classes[k], m.Types.ByID[t].Name, m.Classes[k].Super
		inheritedVT, inherited := []int32(nil), int32(0)
		c.staticAt, c.hostUp = -1, super
		if ks := defIdx(super); ks >= 0 {
			sc := &d.classes[ks]
			inheritedVT, inherited = d.list(sc.vtable), sc.numSlots
			c.staticAt, c.hostUp = sc.staticAt, sc.hostUp
		} else if int(super) < len(hostTables) {
			if m.Types.IsSubclass(super, m.Types.Throwable) {
				inherited = 1 // the message every throwable holds
			}
			inheritedVT = hostTables[super]
		}
		// The bound is checked before the inherited table is copied: a
		// class that adds no method still costs its copy.
		if work += len(inheritedVT); work > maxDispatchWork {
			bad("class %s: dispatch tables too large to derive", name)
			return d
		}
		start := int32(len(d.lists))
		d.lists = append(d.lists, inheritedVT...)
		c.numSlots += inherited
		for _, fi := range d.list(c.fields) {
			if !m.Fields[fi].Static {
				d.slot[fi] += inherited
			}
		}
		for _, mi := range d.list(c.methods) {
			mr := &m.Methods[mi]
			if mr.Static || mr.IsCtor {
				continue
			}
			if work += len(d.lists) - int(start); work > maxDispatchWork {
				bad("class %s: dispatch tables too large to derive", name)
				return d
			}
			if m.overridesStatic(&d, defIdx, c.staticAt, c.hostUp, mr, &work) {
				bad("class %s: method %d (%s) overrides a static method", name, mi, mr.Sig(m.Types))
			}
			var slot int32
			var sameResult bool
			if d.lists, slot, sameResult = place(m, d.lists, start, mi); !sameResult {
				bad("class %s: method %d (%s) overrides an inherited method with a different result type", name, mi, mr.Sig(m.Types))
			}
			d.vslot[mi] = slot
		}
		c.vtable = span{start, int32(len(d.lists)) - start}
		if c.statics > 0 {
			c.staticAt = int32(k)
		}
		// An inherited host method the class does not override is named by
		// its method-table entry, as every dispatch-table entry is.
		for j, e := range d.list(c.vtable) {
			if e >= 0 {
				continue
			}
			h := &hostMethods[-1-e]
			if at := hostAt[-1-e]; at > 0 {
				d.lists[int(start)+j] = at - 1
			} else {
				bad("class %s: inherits %s.%s, which the method table does not list", name, m.Types.Describe(h.Owner), h.Name)
			}
		}
	}
	return d
}

// dispatchRoom is what the unit's dispatch tables take of the lists, at
// most: a class's table is at most its superclass's and its own virtual
// methods, and the derivation stops once the work those tables cost —
// each table's copy, and for each virtual method the table searched and
// the members of the superclasses that declare a static looked through
// (overridesStatic) — passes maxDispatchWork. Where no method overrides
// another the bound is what the derivation keeps, so its lists are carved
// once, at their length.
func (m *Module) dispatchRoom(d *derived, defIdx func(TypeID) int) int {
	room, work := 0, 0
	for t := TypeID(m.Types.ImplicitLen); int(t) < len(m.Types.ByID); t++ {
		k := defIdx(t)
		if k < 0 {
			continue
		}
		c, super := &d.classes[k], m.Classes[k].Super
		inherited := 0
		if ks := defIdx(super); ks >= 0 {
			sc := &d.classes[ks]
			inherited, c.above = int(sc.bound), sc.above
			if sc.statics > 0 {
				c.above += sc.methods.n
			}
		} else if int(super) < len(hostTables) {
			inherited = len(hostTables[super])
		}
		if work += inherited; work > maxDispatchWork {
			return room
		}
		room += inherited
		for v := range int(c.virtuals) {
			if work += inherited + v + int(c.above); work > maxDispatchWork {
				return room
			}
			room++
		}
		c.bound = int32(inherited) + c.virtuals
	}
	return room
}

// place puts dispatch-table entry e in the table lists[start:] is
// building: in the slot of the inherited entry of the same name and
// parameters, or appended. It returns the lists, e's slot, and whether
// the entry it replaces, if any, has e's result. (The lists are passed
// and returned, not written through a *derived, so that a derivation
// made in its caller's frame stays there.)
func place(m *Module, lists []int32, start, e int32) ([]int32, int32, bool) {
	name, params, result := entry(m, e)
	vt := lists[start:]
	for j, in := range vt {
		inName, inParams, inResult := entry(m, in)
		if inName == name && slices.Equal(inParams, params) {
			vt[j] = e
			return lists, int32(j), inResult == result
		}
	}
	return append(lists, e), int32(len(vt)), true
}

// overridesStatic reports whether a static method of mr's name and
// parameters is declared by unit class k — the nearest above mr's owner
// that declares a static, or -1 — or by one of the unit classes above k
// that declare a static, or by host, the imported class the unit classes
// above mr's owner extend, or one of its superclasses. It adds the unit
// members it reads to *work. A dispatch table holds no statics, so they
// are found in the member lists and the host library; a class that
// declares no static is not looked through.
func (m *Module) overridesStatic(d *derived, defIdx func(TypeID) int, k int32, host TypeID, mr *MethodRef, work *int) bool {
	for k >= 0 {
		ms := d.list(d.classes[k].methods)
		*work += len(ms)
		for _, mi := range ms {
			if s := &m.Methods[mi]; s.Static && s.Name == mr.Name && slices.Equal(s.Params, mr.Params) {
				return true
			}
		}
		if ks := defIdx(m.Classes[k].Super); ks >= 0 {
			k = d.classes[ks].staticAt
		} else {
			k = -1
		}
	}
	for t := host; t != NoType && int(t) < len(hostOwned); t = m.Types.ByID[t].Super {
		for _, h := range hostOwned[t] {
			if s := &hostMethods[h]; s.Static && s.Name == mr.Name && slices.Equal(s.Params, mr.Params) {
				return true
			}
		}
	}
	return false
}

// entry is the name, parameters and result of dispatch-table entry e: a
// method-table index, or -1-i for hostMethods[i] not yet bound to one.
func entry(m *Module, e int32) (string, []TypeID, TypeID) {
	if e < 0 {
		h := &hostMethods[-1-e]
		return h.Name, h.Params, h.Result
	}
	mr := &m.Methods[e]
	return mr.Name, mr.Params, mr.Result
}

// install writes the derivation into m's tables, each list kept from keep,
// or, when keep is nil, the list m holds if it is the derivation's and a
// new one if not.
func (m *Module) install(d *derived, keep *Slab[int32]) {
	kept := func(have, v []int32) []int32 {
		switch {
		case keep != nil:
			return keep.Keep(v)
		case slices.Equal(have, v):
			return have
		}
		return append([]int32(nil), v...)
	}
	for i := range m.Fields {
		m.Fields[i].Slot = d.slot[i]
	}
	for i := range m.Methods {
		m.Methods[i].VSlot, m.Methods[i].Builtin = d.vslot[i], BuiltinID(d.builtin[i])
	}
	for k, cd := range m.Classes {
		c := &d.classes[k]
		cd.NumSlots, cd.NumStatics = c.numSlots, c.numStatics
		cd.Fields = kept(cd.Fields, d.list(c.fields))
		cd.Methods = kept(cd.Methods, d.list(c.methods))
		cd.VTable = kept(cd.VTable, d.list(c.vtable))
	}
}
