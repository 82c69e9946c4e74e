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
	// arrayType interns array descriptors for instanceof/checkcast; prim
	// caches the ids of NEWARRAY's element tags.
	arrayType map[string]int32
	prim      [5]int32

	printStream *rt.Object
	sbClass     *rt.ClassInfo

	// frames holds one activation record per call depth, reused by
	// every call made at that depth (see activation).
	frames []*frame
}

type rtClass struct {
	cf         *ClassFile
	super      *rtClass
	info       *rt.ClassInfo
	fieldSlot  map[string]int32
	staticSlot map[string]int32
	methods    map[string]*Method
	// refs is the link table over cf's constant pool (link.go).
	refs []ref
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

	// One allocation holds every user class's link table.
	entries := 0
	for _, cf := range p.Classes {
		entries += len(cf.CP.Entries)
	}
	refs := make([]ref, entries)

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
			if _, dup := vm.classes[cf.Name]; dup {
				return nil, fmt.Errorf("bytecode: class %s redefined", cf.Name)
			}
			n := len(cf.CP.Entries)
			c := &rtClass{
				cf:         cf,
				super:      super,
				fieldSlot:  map[string]int32{},
				staticSlot: map[string]int32{},
				methods:    map[string]*Method{},
				refs:       refs[:n:n],
			}
			refs = refs[n:]
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
				if v, threw := vm.call(vm.activation(0, c, m)); threw {
					err = uncaught(v)
					return
				}
			}
		}
	}()
	return vm, err
}

// catchTopLevel turns a kill, which unwinds the Go stack by panic past
// every activation to here, into err; any other panic is a host failure
// and goes on. A kill leaves nothing to reset: the live slot count is
// zeroed, and the next call starts again at the record for depth 0.
func (vm *VM) catchTopLevel(err *error) {
	r := recover()
	if r == nil {
		return
	}
	vm.Env.Unwind()
	if t, ok := r.(error); ok && rt.IsExecError(t) {
		*err = t
		return
	}
	panic(r)
}

// uncaught is the error of a guest exception v no handler caught.
func uncaught(v rt.Value) error {
	msg := ""
	if o, ok := v.R.(*rt.Object); ok {
		msg = o.Class.Name
		if len(o.Fields) > 0 {
			if s, ok := rt.GetStr(o.Fields[0].R); ok {
				msg += ": " + s
			}
		}
	}
	return fmt.Errorf("uncaught exception: %s", msg)
}

// RunMain executes the program's entry method, main() or main(String[])
// of its main class, with a null argument.
func (vm *VM) RunMain() error {
	if vm.Prog.Main == "" {
		return fmt.Errorf("bytecode: no main class")
	}
	c := vm.classes[vm.Prog.Main]
	m := c.methods["main"+vm.Prog.MainDesc]
	if m == nil || !m.Static {
		return fmt.Errorf("bytecode: class %s has no main method", vm.Prog.Main)
	}
	var err error
	func() {
		defer vm.catchTopLevel(&err)
		if v, threw := vm.call(vm.activation(0, c, m)); threw {
			err = uncaught(v)
		}
	}()
	return err
}
