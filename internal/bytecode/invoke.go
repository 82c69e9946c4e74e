package bytecode

import (
	"fmt"

	"safetsa/internal/rt"
)

// execInvoke handles the three invocation opcodes, including the imported
// host library (Math, PrintStream, String, StringBuilder, Throwable).
func (vm *VM) execInvoke(fr *frame, in Instr) {
	cp := fr.c.cf.CP.Entries
	ref := cp[in.A]
	class := cpUTF8Of(fr.c.cf, cp[ref.A].A)
	name := cpUTF8Of(fr.c.cf, ref.B)
	desc := cpUTF8Of(fr.c.cf, ref.C)
	sig := name + desc
	_, result := paramDescs(desc)

	words := descSlots(desc)
	if in.Op != INVOKESTATIC {
		words++
	}
	args := make([]rt.Value, words)
	copy(args, fr.stack[len(fr.stack)-words:])
	fr.stack = fr.stack[:len(fr.stack)-words]

	pushResult := func(v rt.Value) {
		switch result {
		case "V":
		case "J", "D":
			fr.pushWide(v)
		default:
			fr.push(v)
		}
	}

	if in.Op == INVOKESTATIC {
		if class == "Math" {
			pushResult(vm.nativeMath(name, desc, args))
			return
		}
		c, m := vm.findStatic(class, sig)
		if m == nil {
			panic(fmt.Sprintf("bytecode: unresolved static method %s.%s", class, sig))
		}
		pushResult(vm.call(c, m, args))
		return
	}

	recv := args[0]
	if recv.R == nil {
		vm.throwNew(vm.exc.NPE, "null receiver for "+class+"."+name)
	}

	if in.Op == INVOKESPECIAL {
		if name == "<init>" {
			if c, m := vm.findStatic(class, sig); m != nil {
				vm.call(c, m, args)
				return
			}
			vm.nativeInit(class, recv, args)
			return
		}
		// super.m(...) — non-virtual.
		c, m := vm.findStatic(class, sig)
		if m == nil {
			pushResult(vm.nativeVirtual(class, name, desc, args))
			return
		}
		pushResult(vm.call(c, m, args))
		return
	}

	// INVOKEVIRTUAL: resolve through the receiver's dynamic class.
	if obj, ok := recv.R.(*rt.Object); ok {
		if c, m := vm.findVirtual(obj.Class, sig); m != nil {
			pushResult(vm.call(c, m, args))
			return
		}
	}
	pushResult(vm.nativeVirtual(class, name, desc, args))
}

func (vm *VM) nativeInit(class string, recv rt.Value, args []rt.Value) {
	obj, _ := recv.R.(*rt.Object)
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

func (vm *VM) nativeVirtual(class, name, desc string, args []rt.Value) rt.Value {
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
		return rt.Value{}
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
			return recv
		case "toString":
			return rt.RefValue(env.Str(cur))
		}
	case "String":
		s := str(recv)
		switch name {
		case "length":
			return rt.IntValue(rt.AsStr(recv.R).Len())
		case "charAt":
			c, ok := rt.AsStr(recv.R).CharAt(args[1].Int())
			if !ok {
				vm.throwNew(vm.exc.Bounds, fmt.Sprintf("string index %d", args[1].Int()))
			}
			return rt.CharValue(rune(c))
		case "substring":
			sub, ok := rt.AsStr(recv.R).Substring(args[1].Int(), args[2].Int())
			if !ok {
				vm.throwNew(vm.exc.Bounds, "substring bounds")
			}
			return rt.RefValue(env.Str(sub))
		case "equals":
			o, ok := rt.GetStr(args[1].R)
			return rt.BoolValue(ok && o == s)
		case "compareTo":
			return rt.IntValue(rt.CompareStr(s, str(args[1])))
		case "indexOf":
			return rt.IntValue(rt.IndexOfStr(s, str(args[1])))
		case "hashCode":
			return rt.IntValue(rt.StringHash(s))
		}
	}
	// Object / Throwable defaults.
	switch name {
	case "hashCode":
		return rt.IntValue(int32(rt.Identity(recv.R)))
	case "equals":
		return rt.BoolValue(refEq(recv.R, args[1].R))
	case "toString":
		return rt.RefValue(env.Str(rt.RefString(recv.R)))
	case "getMessage":
		if obj, ok := recv.R.(*rt.Object); ok && len(obj.Fields) > 0 {
			return obj.Fields[0]
		}
		return rt.Value{}
	}
	panic(fmt.Sprintf("bytecode: unresolved virtual method %s.%s%s", class, name, desc))
}
