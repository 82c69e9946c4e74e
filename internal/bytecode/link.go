package bytecode

import (
	"fmt"

	"safetsa/internal/rt"
)

// Linking. A JVM resolves a symbolic reference the first time an
// instruction uses it and keeps the result (JVMS §5.4.3); so does the VM:
// each class's constant pool has a table of refs, one per entry, empty
// until an instruction first uses the entry, and from then on what that
// entry resolved to. Resolution by name — the per-class maps, a method's
// name+descriptor key, the descriptor's words — happens only here, once
// per entry and VM; the tables belong to the VM, never to the shared
// Program. An entry that does not resolve fails where it always did, with
// the same text: a static field or method at its first use, an instance
// field once the receiver is known not to be null, a class at NEW.

// refKind is what a constant-pool entry was linked as.
type refKind uint8

const (
	refNone      refKind = iota
	refField             // an instance field: slot (-1 if unresolved), wide
	refStatic            // a static field: class, slot, wide
	refSystemOut         // System.out, the one imported static field
	refMethod            // a method: words, result, non-virtual target, call-site cache
	refClass             // a class: class, array type ids
)

// ref is one constant-pool entry as this VM linked it.
type ref struct {
	kind refKind
	// wide: a field of two words, or a method whose result is two.
	wide bool
	// void: a method without result.
	void bool
	// math: a static method of the imported Math class.
	math bool
	// object, str: a class ref naming Object, or String.
	object, str bool
	// slot is a field's slot in its object or its class's statics.
	slot int32
	// params is a method's argument words, its receiver not counted.
	params int32
	// array is the type id of a class ref's name read as an array
	// descriptor, elem the id of an array of the class; 0 until the type
	// is interned, which happens when the first such array is made.
	array, elem int32
	// class is a static field's owner, a method's non-virtual target's
	// class, a class ref's class (nil: imported without a class, or
	// unknown).
	class *rtClass
	// method is the non-virtual target, found as INVOKESTATIC and
	// INVOKESPECIAL find it; nil for an imported method.
	method *Method
	// hits is INVOKEVIRTUAL's cache at this entry: the target for each
	// receiver class seen, up to maxHits of them.
	hits []hit
	// dims holds MULTIANEWARRAY's type id per dimension, 0 until made.
	dims []int32
	// owner, name and desc are the symbolic reference, for the imported
	// library and for failure texts; sig is a method's name+desc, the key
	// its class's methods are found by.
	owner, name, desc, sig string
}

// hit is one receiver class's virtual target; m is nil when the receiver
// inherits the method from the imported library.
type hit struct {
	recv *rt.ClassInfo
	c    *rtClass
	m    *Method
}

// maxHits bounds a call site's cache; a site that sees more receiver
// classes than this resolves the others on each call.
const maxHits = 8

// fieldRef links entry i of c's pool as a field, static or not.
func (vm *VM) fieldRef(c *rtClass, i int32, static bool) *ref {
	r := &c.refs[i]
	if r.kind == refSystemOut || r.kind == refStatic && static || r.kind == refField && !static {
		return r
	}
	cp := c.cf.CP.Entries
	e := cp[i]
	*r = ref{owner: cpUTF8Of(c.cf, cp[e.A].A), name: cpUTF8Of(c.cf, e.B), desc: cpUTF8Of(c.cf, e.C)}
	r.wide = r.desc == "J" || r.desc == "D"
	switch {
	case static && r.owner == "System" && r.name == "out":
		r.kind = refSystemOut
	case static:
		r.kind = refStatic
		r.class, r.slot = vm.resolveStatic(r.owner, r.name)
	default:
		r.kind = refField
		r.slot = vm.resolveField(r.owner, r.name)
	}
	return r
}

// unresolvedField is the failure of an instance field that did not link.
func unresolvedField(r *ref) string {
	return fmt.Sprintf("bytecode: unresolved field %s.%s", r.owner, r.name)
}

// methodRef links entry i of c's pool as a method.
func (vm *VM) methodRef(c *rtClass, i int32) *ref {
	r := &c.refs[i]
	if r.kind == refMethod {
		return r
	}
	cp := c.cf.CP.Entries
	e := cp[i]
	*r = ref{kind: refMethod, owner: cpUTF8Of(c.cf, cp[e.A].A), name: cpUTF8Of(c.cf, e.B), desc: cpUTF8Of(c.cf, e.C)}
	r.params = int32(descSlots(r.desc))
	_, result := paramDescs(r.desc)
	r.void = result == "V"
	r.wide = result == "J" || result == "D"
	r.sig = r.name + r.desc
	r.math = r.owner == "Math"
	r.class, r.method = vm.findStatic(r.owner, r.sig)
	return r
}

// unresolvedStatic is the failure of an INVOKESTATIC whose target is not
// there.
func unresolvedStatic(r *ref) string {
	return fmt.Sprintf("bytecode: unresolved static method %s.%s", r.owner, r.sig)
}

// virtual is the target of INVOKEVIRTUAL at r for a receiver of class ci:
// from the site's cache, or resolved through ci's chain and cached.
func (vm *VM) virtual(r *ref, ci *rt.ClassInfo) (*rtClass, *Method) {
	for i := range r.hits {
		if h := &r.hits[i]; h.recv == ci {
			return h.c, h.m
		}
	}
	c, m := vm.findVirtual(ci, r.sig)
	if len(r.hits) < maxHits {
		r.hits = append(r.hits, hit{ci, c, m})
	}
	return c, m
}

// classRef links entry i of c's pool as a class.
func (vm *VM) classRef(c *rtClass, i int32) *ref {
	r := &c.refs[i]
	if r.kind == refClass {
		return r
	}
	name := cpUTF8Of(c.cf, c.cf.CP.Entries[i].A)
	*r = ref{kind: refClass, owner: name, class: vm.classes[name], object: name == "Object", str: name == "String"}
	return r
}

// arrayOf is the type id of an array of class r, interned the first time
// such an array is made.
func (vm *VM) arrayOf(r *ref) int32 {
	if r.elem == 0 {
		r.elem = vm.arrayTypeID("[" + r.owner)
	}
	return r.elem
}

// asArray is the type id of r's name read as an array descriptor, 0 while
// no array of that type has been made (so none can be an instance of it).
func (vm *VM) asArray(r *ref) int32 {
	if r.array == 0 && len(r.owner) > 0 && r.owner[0] == '[' {
		r.array = vm.arrayType[r.owner]
	}
	return r.array
}

// dimType is the type id of MULTIANEWARRAY r's arrays at dimension d,
// interned the first time one is made.
func (vm *VM) dimType(r *ref, d int) int32 {
	if len(r.dims) <= d {
		r.dims = append(r.dims, make([]int32, d+1-len(r.dims))...)
	}
	if r.dims[d] == 0 {
		r.dims[d] = vm.arrayTypeID(r.owner[d:])
	}
	return r.dims[d]
}

// primArray is the type id of an array of NEWARRAY's element tag.
func (vm *VM) primArray(tag int32) int32 {
	if tag < 0 || int(tag) >= len(vm.prim) {
		return vm.arrayTypeID("[" + primDesc(tag))
	}
	if vm.prim[tag] == 0 {
		vm.prim[tag] = vm.arrayTypeID("[" + primDesc(tag))
	}
	return vm.prim[tag]
}

func (vm *VM) arrayTypeID(desc string) int32 {
	if id, ok := vm.arrayType[desc]; ok {
		return id
	}
	id := int32(len(vm.arrayType)) + 1
	vm.arrayType[desc] = id
	return id
}

// findVirtual resolves a method signature against a runtime class chain.
func (vm *VM) findVirtual(ci *rt.ClassInfo, sig string) (*rtClass, *Method) {
	for c := vm.classes[ci.Name]; c != nil; c = c.super {
		if m, ok := c.methods[sig]; ok {
			return c, m
		}
	}
	return nil, nil
}

func (vm *VM) findStatic(class, sig string) (*rtClass, *Method) {
	for c := vm.classes[class]; c != nil; c = c.super {
		if m, ok := c.methods[sig]; ok {
			return c, m
		}
	}
	return nil, nil
}

func (vm *VM) resolveStatic(class, name string) (*rtClass, int32) {
	for c := vm.classes[class]; c != nil; c = c.super {
		if slot, ok := c.staticSlot[name]; ok {
			return c, slot
		}
	}
	panic(fmt.Sprintf("bytecode: unresolved static field %s.%s", class, name))
}

// resolveField is the slot of an instance field, -1 when there is none.
func (vm *VM) resolveField(class, name string) int32 {
	for c := vm.classes[class]; c != nil; c = c.super {
		if slot, ok := c.fieldSlot[name]; ok {
			return slot
		}
	}
	return -1
}

// cpUTF8Of resolves a UTF8 entry.
func cpUTF8Of(cf *ClassFile, idx int32) string { return cf.CP.Entries[idx].S }
