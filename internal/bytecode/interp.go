package bytecode

import (
	"fmt"

	"safetsa/internal/rt"
)

// VM executes a bytecode Program against the shared runtime. The operand
// stack follows the JVM word model: long and double values occupy two
// stack slots (the upper one a dummy), so DUP2/POP2 have their exact
// class-file semantics.
type VM struct {
	Prog *Program
	Env  *rt.Env

	classes map[string]*rtClass
	exc     rt.ExcClasses
	// arrayType interns array descriptors for instanceof/checkcast.
	arrayType map[string]int32
	arrayName []string

	printStream *rt.Object
	sbClass     *rt.ClassInfo
}

type rtClass struct {
	cf         *ClassFile
	super      *rtClass
	info       *rt.ClassInfo
	fieldSlot  map[string]int32
	staticSlot map[string]int32
	methods    map[string]*Method
}

// NewVM links a program: builds class metadata, resolves the hierarchy,
// and runs the static initializers.
func NewVM(p *Program, env *rt.Env) (*VM, error) {
	vm := &VM{
		Prog:      p,
		Env:       env,
		classes:   make(map[string]*rtClass),
		arrayType: make(map[string]int32),
	}
	mkImported := func(name string, super *rtClass, slots int) *rtClass {
		c := &rtClass{
			super:      super,
			fieldSlot:  map[string]int32{},
			staticSlot: map[string]int32{},
			methods:    map[string]*Method{},
		}
		var si *rt.ClassInfo
		if super != nil {
			si = super.info
		}
		c.info = &rt.ClassInfo{Name: name, Super: si, NumSlots: slots}
		vm.classes[name] = c
		return c
	}
	object := mkImported("Object", nil, 0)
	mkImported("String", object, 0)
	throwable := mkImported("Throwable", object, 1)
	throwable.fieldSlot["message"] = 0
	exc := mkImported("Exception", throwable, 1)
	vm.exc = rt.ExcClasses{
		Throwable: throwable.info,
		Exception: exc.info,
		NPE:       mkImported("NullPointerException", exc, 1).info,
		Arith:     mkImported("ArithmeticException", exc, 1).info,
		Bounds:    mkImported("IndexOutOfBoundsException", exc, 1).info,
		Cast:      mkImported("ClassCastException", exc, 1).info,
		NegSize:   mkImported("NegativeArraySizeException", exc, 1).info,
	}
	sb := mkImported("StringBuilder", object, 1)
	vm.sbClass = sb.info
	ps := mkImported("PrintStream", object, 0)
	vm.printStream = env.NewObject(ps.info)

	// User classes: superclasses must be linked first; iterate until
	// fixpoint (class files arrive in declaration order, which is not
	// necessarily topological).
	pending := append([]*ClassFile(nil), p.Classes...)
	for len(pending) > 0 {
		progress := false
		var next []*ClassFile
		for _, cf := range pending {
			super, ok := vm.classes[cf.Super]
			if !ok {
				next = append(next, cf)
				continue
			}
			progress = true
			c := &rtClass{
				cf:         cf,
				super:      super,
				fieldSlot:  map[string]int32{},
				staticSlot: map[string]int32{},
				methods:    map[string]*Method{},
			}
			for k, v := range super.fieldSlot {
				c.fieldSlot[k] = v
			}
			slots := super.info.NumSlots
			statics := 0
			for _, f := range cf.Fields {
				if f.Static {
					c.staticSlot[f.Name] = int32(statics)
					statics++
				} else {
					c.fieldSlot[f.Name] = int32(slots)
					slots++
				}
			}
			for _, m := range cf.Methods {
				c.methods[m.Sig()] = m
			}
			c.info = &rt.ClassInfo{
				Name: cf.Name, Super: super.info,
				NumSlots: slots, Statics: make([]rt.Value, statics),
			}
			vm.classes[cf.Name] = c
			if prev, dup := vm.classes[cf.Name]; dup && prev != c {
				return nil, fmt.Errorf("bytecode: class %s redefined", cf.Name)
			}
		}
		if !progress {
			return nil, fmt.Errorf("bytecode: unresolved superclasses")
		}
		pending = next
	}

	var err error
	func() {
		defer vm.catchTopLevel(&err)
		for _, cf := range p.Classes {
			c := vm.classes[cf.Name]
			if m, ok := c.methods["<clinit>()V"]; ok {
				vm.call(c, m, nil)
			}
		}
	}()
	return vm, err
}

func (vm *VM) catchTopLevel(err *error) {
	r := recover()
	if r != nil {
		vm.Env.Unwind(0)
	}
	switch t := r.(type) {
	case nil:
	case error:
		if rt.IsExecError(t) {
			*err = t
			return
		}
		panic(r)
	case rt.Thrown:
		msg := ""
		if o, ok := t.Val.R.(*rt.Object); ok {
			msg = o.Class.Name
			if len(o.Fields) > 0 {
				if s, ok := rt.GetStr(o.Fields[0].R); ok {
					msg += ": " + s
				}
			}
		}
		*err = fmt.Errorf("uncaught exception: %s", msg)
	default:
		panic(r)
	}
}

// RunMain executes static main of the program's main class.
func (vm *VM) RunMain() error {
	if vm.Prog.Main == "" {
		return fmt.Errorf("bytecode: no main class")
	}
	c := vm.classes[vm.Prog.Main]
	var m *Method
	for sig, cand := range c.methods {
		if cand.Static && cand.Name == "main" && (sig == "main()V" || sig == "main([LString;)V") {
			m = cand
			break
		}
	}
	if m == nil {
		return fmt.Errorf("bytecode: class %s has no main method", vm.Prog.Main)
	}
	args := make([]rt.Value, descSlots(m.Desc))
	var err error
	func() {
		defer vm.catchTopLevel(&err)
		vm.call(c, m, args)
	}()
	return err
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

func (vm *VM) arrayTypeID(desc string) int32 {
	if id, ok := vm.arrayType[desc]; ok {
		return id
	}
	id := int32(len(vm.arrayName)) + 1
	vm.arrayType[desc] = id
	vm.arrayName = append(vm.arrayName, desc)
	return id
}

// cpString resolves a UTF8 entry.
func cpUTF8Of(cf *ClassFile, idx int32) string { return cf.CP.Entries[idx].S }

func (vm *VM) throwNew(ci *rt.ClassInfo, msg string) {
	vm.Env.ThrowNew(ci, msg)
}
