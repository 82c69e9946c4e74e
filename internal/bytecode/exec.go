package bytecode

import (
	"fmt"

	"safetsa/internal/rt"
)

// frame is one activation record of the stack machine. The VM keeps one
// per call depth and reuses it, with its locals and operand-stack
// buffers, for every call made at that depth: after the first call that
// deep, a call allocates nothing.
type frame struct {
	c      *rtClass
	m      *Method
	locals []rt.Value
	stack  []rt.Value
	pc     int32
	depth  int // this record's index in VM.frames
}

func (f *frame) push(v rt.Value) { f.stack = append(f.stack, v) }
func (f *frame) pushWide(v rt.Value) {
	f.stack = append(f.stack, v, rt.Value{})
}
func (f *frame) pop() rt.Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}
func (f *frame) popWide() rt.Value {
	f.stack = f.stack[:len(f.stack)-1] // dummy word
	return f.pop()
}
func (f *frame) peek(n int) rt.Value { return f.stack[len(f.stack)-1-n] }

// pushResult pushes what a call through r returned.
func (f *frame) pushResult(r *ref, v rt.Value) {
	switch {
	case r.void:
	case r.wide:
		f.pushWide(v)
	default:
		f.push(v)
	}
}

// activation readies the record for depth d to run m of class c: its
// locals cleared, its operand stack empty.
func (vm *VM) activation(d int, c *rtClass, m *Method) *frame {
	if d == len(vm.frames) {
		vm.frames = append(vm.frames, &frame{depth: d})
	}
	fr := vm.frames[d]
	fr.c, fr.m, fr.pc = c, m, 0
	n := m.MaxLocals + 2
	if cap(fr.locals) < n {
		fr.locals = make([]rt.Value, n)
	} else {
		fr.locals = fr.locals[:n]
		clear(fr.locals)
	}
	fr.stack = fr.stack[:0]
	return fr
}

// call runs the readied activation fr to its end, holding its stack
// slots meanwhile. It returns the method's (single-slot) result — a wide
// result is returned as the value itself — or, with threw set, the
// exception that left it.
func (vm *VM) call(fr *frame) (v rt.Value, threw bool) {
	slots := rt.FrameSlots(fr.m.MaxLocals + 2)
	vm.Env.Enter(slots)
	for {
		v, threw = vm.exec(fr)
		if !threw || !vm.catch(fr, v) {
			break
		}
	}
	vm.Env.Leave(slots)
	return v, threw
}

// catch looks for a handler of exception v in fr's method at the faulting
// pc; if there is one, fr resumes there with v alone on its stack.
func (vm *VM) catch(fr *frame, v rt.Value) bool {
	obj, isObj := v.R.(*rt.Object)
	for _, e := range fr.m.ExcTable {
		if fr.pc < e.Start || fr.pc >= e.End {
			continue
		}
		if e.CatchType != 0 {
			target := vm.classRef(fr.c, e.CatchType).class
			if target == nil || !isObj || !obj.Class.IsSubclassOf(target.info) {
				continue
			}
		}
		fr.stack = append(fr.stack[:0], v)
		fr.pc = e.Handler
		return true
	}
	return false
}

// newExc allocates an exception of class ci carrying msg, for the caller
// to throw.
func (vm *VM) newExc(ci *rt.ClassInfo, msg string) rt.Value {
	o := vm.Env.NewObject(ci)
	if len(o.Fields) > 0 {
		o.Fields[0] = rt.RefValue(vm.Env.Str(msg))
	}
	return rt.RefValue(o)
}

// exec runs fr from its pc until its method returns (threw unset) or an
// exception is raised at fr.pc (threw set, v the exception), which call
// then dispatches through the method's exception table.
func (vm *VM) exec(fr *frame) (v rt.Value, threw bool) {
	env := vm.Env
	code := fr.m.Code
	cp := fr.c.cf.CP.Entries
	for {
		if int(fr.pc) >= len(code) {
			return rt.Value{}, false
		}
		env.Step()
		in := code[fr.pc]
		next := fr.pc + 1
		switch in.Op {
		case NOP:
		case ICONST:
			fr.push(rt.IntValue(in.A))
		case LCONST:
			fr.pushWide(rt.LongValue(cp[in.A].I))
		case DCONST:
			fr.pushWide(rt.DoubleValue(cp[in.A].D))
		case SCONST:
			fr.push(rt.RefValue(env.Str(cp[cp[in.A].A].S)))
		case ACONSTNULL:
			fr.push(rt.Value{})

		case ILOAD, ALOAD:
			fr.push(fr.locals[in.A])
		case LLOAD, DLOAD:
			fr.pushWide(fr.locals[in.A])
		case ISTORE, ASTORE:
			fr.locals[in.A] = fr.pop()
		case LSTORE, DSTORE:
			fr.locals[in.A] = fr.popWide()

		case POP:
			fr.pop()
		case POP2:
			fr.pop()
			fr.pop()
		case DUP:
			fr.push(fr.peek(0))
		case DUPX1:
			v1 := fr.pop()
			v2 := fr.pop()
			fr.push(v1)
			fr.push(v2)
			fr.push(v1)
		case DUP2:
			v1 := fr.peek(0)
			v2 := fr.peek(1)
			fr.push(v2)
			fr.push(v1)
		case SWAP:
			v1 := fr.pop()
			v2 := fr.pop()
			fr.push(v1)
			fr.push(v2)

		case IADD:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a + b))
		case ISUB:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a - b))
		case IMUL:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a * b))
		case IDIV:
			b, a := fr.pop().Int(), fr.pop().Int()
			if b == 0 {
				return vm.newExc(vm.exc.Arith, "/ by zero"), true
			}
			fr.push(rt.IntValue(rt.IDiv(a, b)))
		case IREM:
			b, a := fr.pop().Int(), fr.pop().Int()
			if b == 0 {
				return vm.newExc(vm.exc.Arith, "/ by zero"), true
			}
			fr.push(rt.IntValue(rt.IRem(a, b)))
		case INEG:
			fr.push(rt.IntValue(-fr.pop().Int()))
		case ISHL:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a << (uint32(b) & 31)))
		case ISHR:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a >> (uint32(b) & 31)))
		case IAND:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a & b))
		case IOR:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a | b))
		case IXOR:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(rt.IntValue(a ^ b))
		case IINC:
			fr.locals[in.A] = rt.IntValue(fr.locals[in.A].Int() + in.B)

		case LADD:
			b, a := fr.popWide().I, fr.popWide().I
			fr.pushWide(rt.LongValue(a + b))
		case LSUB:
			b, a := fr.popWide().I, fr.popWide().I
			fr.pushWide(rt.LongValue(a - b))
		case LMUL:
			b, a := fr.popWide().I, fr.popWide().I
			fr.pushWide(rt.LongValue(a * b))
		case LDIV:
			b, a := fr.popWide().I, fr.popWide().I
			if b == 0 {
				return vm.newExc(vm.exc.Arith, "/ by zero"), true
			}
			fr.pushWide(rt.LongValue(rt.LDiv(a, b)))
		case LREM:
			b, a := fr.popWide().I, fr.popWide().I
			if b == 0 {
				return vm.newExc(vm.exc.Arith, "/ by zero"), true
			}
			fr.pushWide(rt.LongValue(rt.LRem(a, b)))
		case LNEG:
			fr.pushWide(rt.LongValue(-fr.popWide().I))
		case LSHL:
			b := fr.pop().Int()
			a := fr.popWide().I
			fr.pushWide(rt.LongValue(a << (uint32(b) & 63)))
		case LSHR:
			b := fr.pop().Int()
			a := fr.popWide().I
			fr.pushWide(rt.LongValue(a >> (uint32(b) & 63)))
		case LAND:
			b, a := fr.popWide().I, fr.popWide().I
			fr.pushWide(rt.LongValue(a & b))
		case LOR:
			b, a := fr.popWide().I, fr.popWide().I
			fr.pushWide(rt.LongValue(a | b))
		case LXOR:
			b, a := fr.popWide().I, fr.popWide().I
			fr.pushWide(rt.LongValue(a ^ b))
		case LCMP:
			b, a := fr.popWide().I, fr.popWide().I
			fr.push(rt.IntValue(cmp64(a, b)))

		case DADD:
			b, a := fr.popWide().D(), fr.popWide().D()
			fr.pushWide(rt.DoubleValue(a + b))
		case DSUB:
			b, a := fr.popWide().D(), fr.popWide().D()
			fr.pushWide(rt.DoubleValue(a - b))
		case DMUL:
			b, a := fr.popWide().D(), fr.popWide().D()
			fr.pushWide(rt.DoubleValue(a * b))
		case DDIV:
			b, a := fr.popWide().D(), fr.popWide().D()
			fr.pushWide(rt.DoubleValue(a / b))
		case DREM:
			b, a := fr.popWide().D(), fr.popWide().D()
			fr.pushWide(rt.DoubleValue(rt.DRem(a, b)))
		case DNEG:
			fr.pushWide(rt.DoubleValue(-fr.popWide().D()))
		case DCMPL, DCMPG:
			b, a := fr.popWide().D(), fr.popWide().D()
			switch {
			case a < b:
				fr.push(rt.IntValue(-1))
			case a > b:
				fr.push(rt.IntValue(1))
			case a == b:
				fr.push(rt.IntValue(0))
			default: // NaN
				if in.Op == DCMPG {
					fr.push(rt.IntValue(1))
				} else {
					fr.push(rt.IntValue(-1))
				}
			}

		case I2L:
			fr.pushWide(rt.LongValue(int64(fr.pop().Int())))
		case I2D:
			fr.pushWide(rt.DoubleValue(float64(fr.pop().Int())))
		case I2C:
			fr.push(rt.IntValue(int32(uint16(fr.pop().Int()))))
		case L2I:
			fr.push(rt.IntValue(int32(fr.popWide().I)))
		case L2D:
			fr.pushWide(rt.DoubleValue(float64(fr.popWide().I)))
		case D2I:
			fr.push(rt.IntValue(rt.D2I(fr.popWide().D())))
		case D2L:
			fr.pushWide(rt.LongValue(rt.D2L(fr.popWide().D())))

		case GOTO:
			next = in.A
		case IFEQ, IFNE, IFLT, IFGE, IFGT, IFLE:
			v := fr.pop().Int()
			if intCond(in.Op, v) {
				next = in.A
			}
		case IFICMPEQ, IFICMPNE, IFICMPLT, IFICMPGE, IFICMPGT, IFICMPLE:
			b, a := fr.pop().Int(), fr.pop().Int()
			if icmpCond(in.Op, a, b) {
				next = in.A
			}
		case IFACMPEQ:
			b, a := fr.pop().R, fr.pop().R
			if refEq(a, b) {
				next = in.A
			}
		case IFACMPNE:
			b, a := fr.pop().R, fr.pop().R
			if !refEq(a, b) {
				next = in.A
			}
		case IFNULL:
			if fr.pop().R == nil {
				next = in.A
			}
		case IFNONNULL:
			if fr.pop().R != nil {
				next = in.A
			}

		case GETSTATIC:
			r := vm.fieldRef(fr.c, in.A, true)
			switch {
			case r.kind == refSystemOut:
				fr.push(rt.RefValue(vm.printStream))
			case r.wide:
				fr.pushWide(r.class.info.Statics[r.slot])
			default:
				fr.push(r.class.info.Statics[r.slot])
			}
		case PUTSTATIC:
			r := vm.fieldRef(fr.c, in.A, true)
			if r.wide {
				r.class.info.Statics[r.slot] = fr.popWide()
			} else {
				r.class.info.Statics[r.slot] = fr.pop()
			}
		case GETFIELD:
			r := vm.fieldRef(fr.c, in.A, false)
			obj, ok := fr.pop().R.(*rt.Object)
			if !ok {
				return vm.newExc(vm.exc.NPE, "null dereference"), true
			}
			if r.slot < 0 {
				panic(unresolvedField(r))
			}
			if r.wide {
				fr.pushWide(obj.Fields[r.slot])
			} else {
				fr.push(obj.Fields[r.slot])
			}
		case PUTFIELD:
			r := vm.fieldRef(fr.c, in.A, false)
			var v rt.Value
			if r.wide {
				v = fr.popWide()
			} else {
				v = fr.pop()
			}
			obj, ok := fr.pop().R.(*rt.Object)
			if !ok {
				return vm.newExc(vm.exc.NPE, "null dereference"), true
			}
			if r.slot < 0 {
				panic(unresolvedField(r))
			}
			obj.Fields[r.slot] = v
		case INVOKEVIRTUAL, INVOKESTATIC, INVOKESPECIAL:
			if v, threw := vm.invoke(fr, in); threw {
				return v, true
			}
		case NEW:
			r := vm.classRef(fr.c, in.A)
			if r.class == nil {
				panic(fmt.Sprintf("bytecode: unknown class %s", r.owner))
			}
			fr.push(rt.RefValue(env.NewObject(r.class.info)))
		case NEWARRAY, ANEWARRAY:
			n := fr.pop().Int()
			if n < 0 {
				return vm.newExc(vm.exc.NegSize, rt.NegativeSizeMessage(n)), true
			}
			var id int32
			if in.Op == NEWARRAY {
				id = vm.primArray(in.A)
			} else {
				id = vm.arrayOf(vm.classRef(fr.c, in.A))
			}
			fr.push(rt.RefValue(env.NewArray(n, id)))
		case MULTIANEWARRAY:
			r := vm.classRef(fr.c, in.A)
			sp := len(fr.stack) - int(in.B)
			arr, exc := vm.multiNew(r, 0, fr.stack[sp:])
			if arr == nil {
				return exc, true
			}
			fr.stack = fr.stack[:sp]
			fr.push(rt.RefValue(arr))
		case ARRAYLENGTH:
			arr, ok := fr.pop().R.(*rt.Array)
			if !ok {
				return vm.nullArray(), true
			}
			fr.push(rt.IntValue(int32(len(arr.Elems))))
		case IALOAD, AALOAD, CALOAD:
			arr, i, exc := vm.element(fr)
			if arr == nil {
				return exc, true
			}
			fr.push(arr.Elems[i])
		case LALOAD, DALOAD:
			arr, i, exc := vm.element(fr)
			if arr == nil {
				return exc, true
			}
			fr.pushWide(arr.Elems[i])
		case IASTORE, AASTORE, CASTORE:
			v := fr.pop()
			arr, i, exc := vm.element(fr)
			if arr == nil {
				return exc, true
			}
			arr.Elems[i] = v
		case LASTORE, DASTORE:
			v := fr.popWide()
			arr, i, exc := vm.element(fr)
			if arr == nil {
				return exc, true
			}
			arr.Elems[i] = v
		case CHECKCAST:
			r := vm.classRef(fr.c, in.A)
			if v := fr.peek(0); v.R != nil && !vm.isInstance(v.R, r) {
				return vm.newExc(vm.exc.Cast, "cannot cast to "+r.owner), true
			}
		case INSTANCEOF:
			r := vm.classRef(fr.c, in.A)
			v := fr.pop()
			fr.push(rt.BoolValue(v.R != nil && vm.isInstance(v.R, r)))
		case ATHROW:
			v := fr.pop()
			if v.R == nil {
				return vm.newExc(vm.exc.NPE, "throw of null"), true
			}
			return v, true

		case IRETURN, ARETURN:
			return fr.pop(), false
		case LRETURN, DRETURN:
			return fr.popWide(), false
		case RETURN:
			return rt.Value{}, false
		default:
			panic(fmt.Sprintf("bytecode: unhandled opcode %s", in.Op))
		}
		fr.pc = next
	}
}

func cmp64(a, b int64) int32 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func intCond(op Opcode, v int32) bool {
	switch op {
	case IFEQ:
		return v == 0
	case IFNE:
		return v != 0
	case IFLT:
		return v < 0
	case IFGE:
		return v >= 0
	case IFGT:
		return v > 0
	case IFLE:
		return v <= 0
	}
	return false
}

func icmpCond(op Opcode, a, b int32) bool {
	switch op {
	case IFICMPEQ:
		return a == b
	case IFICMPNE:
		return a != b
	case IFICMPLT:
		return a < b
	case IFICMPGE:
		return a >= b
	case IFICMPGT:
		return a > b
	case IFICMPLE:
		return a <= b
	}
	return false
}

func refEq(a, b rt.Ref) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b
}

// nullArray is the exception an array instruction raises on null.
func (vm *VM) nullArray() rt.Value { return vm.newExc(vm.exc.NPE, "null array") }

// element pops an index and the array below it for an element access; a
// nil array means exc was raised.
func (vm *VM) element(fr *frame) (arr *rt.Array, i int32, exc rt.Value) {
	i = fr.pop().Int()
	arr, ok := fr.pop().R.(*rt.Array)
	if !ok {
		return nil, 0, vm.nullArray()
	}
	if i < 0 || int(i) >= len(arr.Elems) {
		return nil, 0, vm.newExc(vm.exc.Bounds, vm.Env.IndexMessage(i, len(arr.Elems)))
	}
	return arr, i, rt.Value{}
}

// primDesc maps a NEWARRAY element tag (a sema.TypeKind value) to the
// descriptor character, keeping the array-type interning consistent with
// instanceof/checkcast class names.
func primDesc(tag int32) string {
	switch tag {
	case 0: // int
		return "I"
	case 1: // long
		return "J"
	case 2: // double
		return "D"
	case 3: // boolean
		return "Z"
	case 4: // char
		return "C"
	}
	return fmt.Sprintf("?%d", tag)
}

// multiNew makes MULTIANEWARRAY r's array of dimension d and below, dims
// the lengths from d on; a nil array means exc was raised.
func (vm *VM) multiNew(r *ref, d int, dims []rt.Value) (arr *rt.Array, exc rt.Value) {
	n := dims[0].Int()
	if n < 0 {
		return nil, vm.newExc(vm.exc.NegSize, rt.NegativeSizeMessage(n))
	}
	arr = vm.Env.NewArray(n, vm.dimType(r, d))
	if len(dims) > 1 {
		for i := range arr.Elems {
			sub, exc := vm.multiNew(r, d+1, dims[1:])
			if sub == nil {
				return nil, exc
			}
			arr.Elems[i] = rt.RefValue(sub)
		}
	}
	return arr, rt.Value{}
}

// isInstance reports whether r is an instance of class ref c.
func (vm *VM) isInstance(r rt.Ref, c *ref) bool {
	switch r := r.(type) {
	case *rt.Str:
		return c.str || c.object
	case *rt.Array:
		if c.object {
			return true
		}
		id := vm.asArray(c)
		return id != 0 && id == r.TypeID
	case *rt.Object:
		return c.class != nil && r.Class.IsSubclassOf(c.class.info)
	}
	return false
}
