package bytecode

import (
	"fmt"
	"math"

	"safetsa/internal/rt"
)

// frame is one activation of the stack machine.
type frame struct {
	c      *rtClass
	m      *Method
	locals []rt.Value
	stack  []rt.Value
	pc     int32
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

// call runs a method to completion and returns its (single-slot) result;
// wide results are returned as the value itself.
func (vm *VM) call(c *rtClass, m *Method, args []rt.Value) rt.Value {
	slots := rt.FrameSlots(m.MaxLocals + 2)
	vm.Env.Enter(slots)
	fr := &frame{c: c, m: m, locals: make([]rt.Value, m.MaxLocals+2)}
	copy(fr.locals, args)
	for {
		done, res := vm.run(fr)
		if done {
			vm.Env.Leave(slots)
			return res
		}
	}
}

// run executes until return or an exception; an exception the method's
// table handles is recovered and dispatched, any other keeps unwinding.
func (vm *VM) run(fr *frame) (done bool, result rt.Value) {
	live := vm.Env.StackSlots()
	defer func() {
		// Recover only an exception this method's table handles; one it
		// does not, and a kill, pass through (see rt.Env.Throw).
		t, ok := vm.Env.InFlight().(rt.Thrown)
		if !ok {
			return
		}
		for _, e := range fr.m.ExcTable {
			if fr.pc < e.Start || fr.pc >= e.End {
				continue
			}
			if e.CatchType != 0 {
				name := cpUTF8Of(fr.c.cf, fr.c.cf.CP.Entries[e.CatchType].A)
				target := vm.classes[name]
				obj, isObj := t.Val.R.(*rt.Object)
				if target == nil || !isObj || !obj.Class.IsSubclassOf(target.info) {
					continue
				}
			}
			recover()
			vm.Env.Unwind(live)
			fr.stack = fr.stack[:0]
			fr.push(t.Val)
			fr.pc = e.Handler
			done = false
			return
		}
	}()
	return vm.exec(fr)
}

func (vm *VM) exec(fr *frame) (bool, rt.Value) {
	env := vm.Env
	code := fr.m.Code
	cp := fr.c.cf.CP.Entries
	for {
		if int(fr.pc) >= len(code) {
			return true, rt.Value{}
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
				vm.throwNew(vm.exc.Arith, "/ by zero")
			}
			fr.push(rt.IntValue(rt.IDiv(a, b)))
		case IREM:
			b, a := fr.pop().Int(), fr.pop().Int()
			if b == 0 {
				vm.throwNew(vm.exc.Arith, "/ by zero")
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
				vm.throwNew(vm.exc.Arith, "/ by zero")
			}
			fr.pushWide(rt.LongValue(rt.LDiv(a, b)))
		case LREM:
			b, a := fr.popWide().I, fr.popWide().I
			if b == 0 {
				vm.throwNew(vm.exc.Arith, "/ by zero")
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

		case GETSTATIC, PUTSTATIC, GETFIELD, PUTFIELD:
			vm.execField(fr, in)
		case INVOKEVIRTUAL, INVOKESTATIC, INVOKESPECIAL:
			fr.pc = next - 1 // faulting pc for the exception table
			vm.execInvoke(fr, in)
		case NEW:
			name := cpUTF8Of(fr.c.cf, cp[in.A].A)
			c := vm.classes[name]
			if c == nil {
				panic(fmt.Sprintf("bytecode: unknown class %s", name))
			}
			fr.push(rt.RefValue(env.NewObject(c.info)))
		case NEWARRAY, ANEWARRAY:
			n := fr.pop().Int()
			if n < 0 {
				vm.throwNew(vm.exc.NegSize, fmt.Sprintf("%d", n))
			}
			var desc string
			if in.Op == NEWARRAY {
				desc = "[" + primDesc(in.A)
			} else {
				desc = "[" + cpUTF8Of(fr.c.cf, cp[in.A].A)
			}
			fr.push(rt.RefValue(env.NewArray(n, vm.arrayTypeID(desc))))
		case MULTIANEWARRAY:
			desc := cpUTF8Of(fr.c.cf, cp[in.A].A)
			dims := make([]int32, in.B)
			for i := int(in.B) - 1; i >= 0; i-- {
				dims[i] = fr.pop().Int()
			}
			fr.push(rt.RefValue(vm.multiNew(desc, dims)))
		case ARRAYLENGTH:
			arr := vm.popArray(fr)
			fr.push(rt.IntValue(int32(len(arr.Elems))))
		case IALOAD, AALOAD, CALOAD:
			i := fr.pop().Int()
			arr := vm.popArray(fr)
			vm.checkBounds(arr, i)
			fr.push(arr.Elems[i])
		case LALOAD, DALOAD:
			i := fr.pop().Int()
			arr := vm.popArray(fr)
			vm.checkBounds(arr, i)
			fr.pushWide(arr.Elems[i])
		case IASTORE, AASTORE, CASTORE:
			v := fr.pop()
			i := fr.pop().Int()
			arr := vm.popArray(fr)
			vm.checkBounds(arr, i)
			arr.Elems[i] = v
		case LASTORE, DASTORE:
			v := fr.popWide()
			i := fr.pop().Int()
			arr := vm.popArray(fr)
			vm.checkBounds(arr, i)
			arr.Elems[i] = v
		case CHECKCAST:
			name := cpUTF8Of(fr.c.cf, cp[in.A].A)
			v := fr.peek(0)
			if v.R != nil && !vm.isInstance(v.R, name) {
				vm.throwNew(vm.exc.Cast, "cannot cast to "+name)
			}
		case INSTANCEOF:
			name := cpUTF8Of(fr.c.cf, cp[in.A].A)
			v := fr.pop()
			fr.push(rt.BoolValue(v.R != nil && vm.isInstance(v.R, name)))
		case ATHROW:
			v := fr.pop()
			if v.R == nil {
				vm.throwNew(vm.exc.NPE, "throw of null")
			}
			fr.pc = next - 1
			env.Throw(rt.Thrown{Val: v})

		case IRETURN, ARETURN:
			return true, fr.pop()
		case LRETURN, DRETURN:
			return true, fr.popWide()
		case RETURN:
			return true, rt.Value{}
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

func (vm *VM) popArray(fr *frame) *rt.Array {
	v := fr.pop()
	arr, ok := v.R.(*rt.Array)
	if !ok {
		vm.throwNew(vm.exc.NPE, "null array")
	}
	return arr
}

func (vm *VM) checkBounds(arr *rt.Array, i int32) {
	if i < 0 || int(i) >= len(arr.Elems) {
		vm.throwNew(vm.exc.Bounds,
			fmt.Sprintf("index %d out of bounds for length %d", i, len(arr.Elems)))
	}
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

func (vm *VM) multiNew(desc string, dims []int32) *rt.Array {
	n := dims[0]
	if n < 0 {
		vm.throwNew(vm.exc.NegSize, fmt.Sprintf("%d", n))
	}
	arr := vm.Env.NewArray(n, vm.arrayTypeID(desc))
	if len(dims) > 1 {
		for i := range arr.Elems {
			arr.Elems[i] = rt.RefValue(vm.multiNew(desc[1:], dims[1:]))
		}
	}
	return arr
}

func (vm *VM) isInstance(r rt.Ref, name string) bool {
	switch r := r.(type) {
	case *rt.Str:
		return name == "String" || name == "Object"
	case *rt.Array:
		if name == "Object" {
			return true
		}
		if id, ok := vm.arrayType[name]; ok {
			return id == r.TypeID
		}
		return false
	case *rt.Object:
		target := vm.classes[name]
		return target != nil && r.Class.IsSubclassOf(target.info)
	}
	return false
}

func (vm *VM) execField(fr *frame, in Instr) {
	cp := fr.c.cf.CP.Entries
	ref := cp[in.A]
	class := cpUTF8Of(fr.c.cf, cp[ref.A].A)
	name := cpUTF8Of(fr.c.cf, ref.B)
	desc := cpUTF8Of(fr.c.cf, ref.C)
	wide := desc == "J" || desc == "D"

	switch in.Op {
	case GETSTATIC:
		// System.out is the one imported static field.
		if class == "System" && name == "out" {
			fr.push(rt.RefValue(vm.printStream))
			return
		}
		c, slot := vm.resolveStatic(class, name)
		v := c.info.Statics[slot]
		if wide {
			fr.pushWide(v)
		} else {
			fr.push(v)
		}
	case PUTSTATIC:
		var v rt.Value
		if wide {
			v = fr.popWide()
		} else {
			v = fr.pop()
		}
		c, slot := vm.resolveStatic(class, name)
		c.info.Statics[slot] = v
	case GETFIELD:
		obj := vm.popObject(fr)
		slot := vm.resolveField(class, name)
		v := obj.Fields[slot]
		if wide {
			fr.pushWide(v)
		} else {
			fr.push(v)
		}
	case PUTFIELD:
		var v rt.Value
		if wide {
			v = fr.popWide()
		} else {
			v = fr.pop()
		}
		obj := vm.popObject(fr)
		slot := vm.resolveField(class, name)
		obj.Fields[slot] = v
	}
}

func (vm *VM) popObject(fr *frame) *rt.Object {
	v := fr.pop()
	obj, ok := v.R.(*rt.Object)
	if !ok {
		vm.throwNew(vm.exc.NPE, "null dereference")
	}
	return obj
}

func (vm *VM) resolveStatic(class, name string) (*rtClass, int32) {
	for c := vm.classes[class]; c != nil; c = c.super {
		if slot, ok := c.staticSlot[name]; ok {
			return c, slot
		}
	}
	panic(fmt.Sprintf("bytecode: unresolved static field %s.%s", class, name))
}

func (vm *VM) resolveField(class, name string) int32 {
	for c := vm.classes[class]; c != nil; c = c.super {
		if slot, ok := c.fieldSlot[name]; ok {
			return slot
		}
	}
	panic(fmt.Sprintf("bytecode: unresolved field %s.%s", class, name))
}

var _ = math.MaxInt32
