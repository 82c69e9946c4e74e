package bytecode

import (
	"fmt"

	"safetsa/internal/rt"
)

// invoke executes the three invocation opcodes, including the imported
// host library (Math, PrintStream, String, StringBuilder, Throwable). A
// call copies its arguments from fr's operand stack straight into the
// callee's locals; threw reports an exception v raised at fr.pc.
func (vm *VM) invoke(fr *frame, in Instr) (v rt.Value, threw bool) {
	r := vm.methodRef(fr.c, in.A)
	words := int(r.params)
	if in.Op != INVOKESTATIC {
		words++
	}
	sp := len(fr.stack) - words
	args := fr.stack[sp:]

	var c *rtClass
	var m *Method
	switch in.Op {
	case INVOKESTATIC:
		if r.math {
			v = vm.nativeMath(r.name, r.desc, args)
			fr.stack = fr.stack[:sp]
			fr.pushResult(r, v)
			return rt.Value{}, false
		}
		if r.method == nil {
			panic(unresolvedStatic(r))
		}
		c, m = r.class, r.method
	case INVOKESPECIAL:
		if args[0].R == nil {
			return vm.nullReceiver(r), true
		}
		c, m = r.class, r.method
		if m == nil && r.name == "<init>" {
			vm.nativeInit(r.owner, args)
			fr.stack = fr.stack[:sp]
			return rt.Value{}, false
		}
	default: // INVOKEVIRTUAL: resolved through the receiver's dynamic class
		recv := args[0].R
		if recv == nil {
			return vm.nullReceiver(r), true
		}
		if obj, ok := recv.(*rt.Object); ok {
			c, m = vm.virtual(r, obj.Class)
		}
	}
	if m == nil {
		if v, threw = vm.nativeVirtual(r.owner, r.name, r.desc, args); threw {
			return v, true
		}
		fr.stack = fr.stack[:sp]
		fr.pushResult(r, v)
		return rt.Value{}, false
	}

	callee := vm.activation(fr.depth+1, c, m)
	copy(callee.locals, args)
	fr.stack = fr.stack[:sp]
	if v, threw = vm.call(callee); threw {
		return v, true
	}
	fr.pushResult(r, v)
	return rt.Value{}, false
}

// nullReceiver is the exception a call through r raises on null.
func (vm *VM) nullReceiver(r *ref) rt.Value {
	return vm.newExc(vm.exc.NPE, "null receiver for "+r.owner+"."+r.name)
}

func (vm *VM) nativeInit(class string, args []rt.Value) {
	obj, _ := args[0].R.(*rt.Object)
	switch class {
	case "Object":
	case "StringBuilder":
		if obj != nil {
			obj.Fields[0] = rt.RefValue(vm.Env.Str(""))
		}
	default:
		// Throwable hierarchy: optional message argument.
		if obj != nil && len(obj.Fields) > 0 && len(args) == 2 {
			obj.Fields[0] = args[1]
		}
	}
}

func (vm *VM) nativeMath(name, desc string, args []rt.Value) rt.Value {
	switch desc {
	case "(D)D":
		return rt.DoubleValue(rt.MathOp(name, args[0].D(), 0))
	case "(DD)D":
		return rt.DoubleValue(rt.MathOp(name, args[0].D(), args[2].D()))
	case "(I)I":
		v := args[0].Int()
		if name == "abs" && v < 0 {
			v = -v
		}
		return rt.IntValue(v)
	case "(II)I":
		a, b := args[0].Int(), args[1].Int()
		if name == "min" && b < a || name == "max" && b > a {
			a = b
		}
		return rt.IntValue(a)
	case "(J)J":
		v := args[0].I
		if name == "abs" && v < 0 {
			v = -v
		}
		return rt.LongValue(v)
	case "(JJ)J":
		a, b := args[0].I, args[2].I
		if name == "min" && b < a || name == "max" && b > a {
			a = b
		}
		return rt.LongValue(a)
	}
	panic("bytecode: unknown Math intrinsic " + name + desc)
}

// nativeVirtual runs an imported instance method; threw reports an
// exception v it raised.
func (vm *VM) nativeVirtual(class, name, desc string, args []rt.Value) (v rt.Value, threw bool) {
	env := vm.Env
	recv := args[0]
	str := func(v rt.Value) string {
		s, _ := rt.GetStr(v.R)
		return s
	}
	switch class {
	case "PrintStream":
		var text string
		switch desc {
		case "(LString;)V":
			text = rt.RefString(args[1].R)
		case "(I)V":
			text = rt.StringOf(args[1], 'i')
		case "(J)V":
			text = rt.StringOf(args[1], 'l')
		case "(D)V":
			text = rt.StringOf(args[1], 'd')
		case "(Z)V":
			text = rt.StringOf(args[1], 'z')
		case "(C)V":
			text = rt.StringOf(args[1], 'c')
		case "()V":
			text = ""
		}
		if name == "println" {
			env.Println(text)
		} else {
			env.Print(text)
		}
		return rt.Value{}, false
	case "StringBuilder":
		obj := recv.R.(*rt.Object)
		cur, _ := rt.GetStr(obj.Fields[0].R)
		switch name {
		case "append":
			var add string
			switch desc {
			case "(LString;)LStringBuilder;":
				add = rt.RefString(args[1].R)
			case "(I)LStringBuilder;":
				add = rt.StringOf(args[1], 'i')
			case "(J)LStringBuilder;":
				add = rt.StringOf(args[1], 'l')
			case "(D)LStringBuilder;":
				add = rt.StringOf(args[1], 'd')
			case "(Z)LStringBuilder;":
				add = rt.StringOf(args[1], 'z')
			case "(C)LStringBuilder;":
				add = rt.StringOf(args[1], 'c')
			default:
				add = rt.RefString(args[1].R)
			}
			obj.Fields[0] = rt.RefValue(env.NewStr(cur + add))
			return recv, false
		case "toString":
			return rt.RefValue(env.Str(cur)), false
		}
	case "String":
		s := str(recv)
		switch name {
		case "length":
			return rt.IntValue(rt.AsStr(recv.R).Len()), false
		case "charAt":
			c, ok := rt.AsStr(recv.R).CharAt(args[1].Int())
			if !ok {
				return vm.newExc(vm.exc.Bounds, rt.StringIndexMessage(args[1].Int())), true
			}
			return rt.CharValue(rune(c)), false
		case "substring":
			sub, ok := rt.AsStr(recv.R).Substring(args[1].Int(), args[2].Int())
			if !ok {
				return vm.newExc(vm.exc.Bounds, "substring bounds"), true
			}
			return rt.RefValue(env.Str(sub)), false
		case "equals":
			o, ok := rt.GetStr(args[1].R)
			return rt.BoolValue(ok && o == s), false
		case "compareTo":
			return rt.IntValue(rt.CompareStr(s, str(args[1]))), false
		case "indexOf":
			return rt.IntValue(rt.IndexOfStr(s, str(args[1]))), false
		case "hashCode":
			return rt.IntValue(rt.StringHash(s)), false
		}
	}
	// Object / Throwable defaults.
	switch name {
	case "hashCode":
		return rt.IntValue(int32(rt.Identity(recv.R))), false
	case "equals":
		return rt.BoolValue(refEq(recv.R, args[1].R)), false
	case "toString":
		return rt.RefValue(env.Str(rt.RefString(recv.R))), false
	case "getMessage":
		if obj, ok := recv.R.(*rt.Object); ok && len(obj.Fields) > 0 {
			return obj.Fields[0], false
		}
		return rt.Value{}, false
	}
	panic(fmt.Sprintf("bytecode: unresolved virtual method %s.%s%s", class, name, desc))
}
