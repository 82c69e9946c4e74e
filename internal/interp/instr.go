package interp

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

func (l *Loader) execInstr(fr *frame, in *core.Instr) {
	a := func(i int) rt.Value { return fr.val(in.Args[i]) }
	setv := func(v rt.Value) {
		if in.HasResult() {
			fr.vals[in.ID] = v
		}
	}

	switch in.Op {
	case core.OpParam:
		setv(fr.args[in.Aux])
	case core.OpConst:
		switch in.Const.Kind {
		case core.KInt, core.KLong, core.KChar, core.KBool:
			setv(rt.Value{I: in.Const.I})
		case core.KDouble:
			setv(rt.DoubleValue(in.Const.D))
		case core.KString:
			setv(rt.RefValue(l.Env.Str(in.Const.S)))
		case core.KNull:
			setv(rt.Value{})
		}
	case core.OpPrim, core.OpXPrim:
		if v, ok := l.execPrim(fr, in); ok {
			setv(v)
		}
	case core.OpNullCheck:
		v := a(0)
		if v.R == nil {
			fr.raiseAt(in, l.newExc(l.exc.NPE, "null dereference"))
			return
		}
		setv(v)
	case core.OpIndexCheck:
		arr := a(0).R.(*rt.Array)
		idx := a(1).Int()
		if idx < 0 || int(idx) >= len(arr.Elems) {
			fr.raiseAt(in, l.boundsExc(idx, len(arr.Elems)))
			return
		}
		setv(rt.IntValue(idx))
	case core.OpUpcast:
		v := a(0)
		if v.R != nil && !l.isInstance(v.R, in.TypeArg) {
			fr.raiseAt(in, l.castExc(in.TypeArg))
			return
		}
		setv(v)
	case core.OpDowncast:
		setv(a(0))
	case core.OpInstanceOf:
		v := a(0)
		setv(rt.BoolValue(v.R != nil && l.isInstance(v.R, in.TypeArg)))
	case core.OpGetField:
		fld := l.Mod.Fields[in.Field]
		if fld.Static {
			setv(l.classes[fld.Owner].Statics[fld.Slot])
			return
		}
		obj := a(0).R.(*rt.Object)
		setv(obj.Fields[fld.Slot])
	case core.OpSetField:
		fld := l.Mod.Fields[in.Field]
		if fld.Static {
			l.classes[fld.Owner].Statics[fld.Slot] = a(0)
			return
		}
		obj := a(0).R.(*rt.Object)
		obj.Fields[fld.Slot] = a(1)
	case core.OpGetElt:
		arr := a(0).R.(*rt.Array)
		setv(arr.Elems[a(1).Int()])
	case core.OpSetElt:
		arr := a(0).R.(*rt.Array)
		arr.Elems[a(1).Int()] = a(2)
	case core.OpArrayLen:
		arr := a(0).R.(*rt.Array)
		setv(rt.IntValue(int32(len(arr.Elems))))
	case core.OpNew:
		setv(rt.RefValue(l.Env.NewObject(l.classes[in.TypeArg])))
	case core.OpNewArray:
		n := a(0).Int()
		if n < 0 {
			fr.raiseAt(in, l.negSizeExc(n))
			return
		}
		setv(rt.RefValue(l.Env.NewArray(n, int32(in.TypeArg))))
	case core.OpXCall, core.OpXDispatch:
		if v, ok := l.execCall(fr, in); ok {
			setv(v)
		}
	case core.OpCatch:
		setv(fr.caught)
	default:
		panic(fmt.Sprintf("interp: unhandled opcode %s", in.Op))
	}
}

// isInstance tests runtime type membership against a module type id.
func (l *Loader) isInstance(r rt.Ref, t core.TypeID) bool {
	tt := l.Mod.Types
	want := tt.MustGet(t)
	switch r := r.(type) {
	case *rt.Str:
		return t == tt.String || t == tt.Object
	case *rt.Array:
		if t == tt.Object {
			return true
		}
		return want.Kind == core.TArray && core.TypeID(r.TypeID) == t
	case *rt.Object:
		if want.Kind != core.TClass {
			return false
		}
		target := l.classes[t]
		return target != nil && r.Class.IsSubclassOf(target)
	}
	return false
}

// execCall performs xcall/xdispatch; ok is false when the callee threw,
// which raises its exception along this site's exception edge.
func (l *Loader) execCall(fr *frame, in *core.Instr) (v rt.Value, ok bool) {
	mr := &l.Mod.Methods[in.Method]
	args := make([]rt.Value, len(in.Args))
	for i, id := range in.Args {
		args[i] = fr.val(id)
	}

	target := in.Method
	if in.Op == core.OpXDispatch {
		// Polymorphic association through the dispatch-table slot
		// (section 6). Host-implemented receivers (strings, which have
		// no dispatch table) bind statically — their classes are final.
		if recv, ok := args[0].R.(*rt.Object); ok && int(mr.VSlot) < len(recv.Class.VTable) {
			target = recv.Class.VTable[mr.VSlot]
			mr = &l.Mod.Methods[target]
		}
	}

	var thrown bool
	if mr.FuncIdx >= 0 {
		v, thrown = l.callFunc(mr.FuncIdx, args)
	} else {
		v, thrown = l.native(mr, args)
	}
	if thrown {
		fr.raiseAt(in, v)
	}
	return v, !thrown
}

// native executes an imported (host-environment) method. thrown reports
// that it raised a guest exception, which is then the value returned.
func (l *Loader) native(mr *core.MethodRef, args []rt.Value) (v rt.Value, thrown bool) {
	if mr.IsCtor {
		// Imported throwable constructors: store the message.
		if len(args) == 2 {
			if obj, ok := args[0].R.(*rt.Object); ok && len(obj.Fields) > 0 {
				obj.Fields[0] = args[1]
			}
		}
		return rt.Value{}, false
	}
	env := l.Env
	str := func(i int) string {
		s, _ := rt.GetStr(args[i].R)
		return s
	}
	switch mr.Builtin {
	case core.BStrLength:
		return rt.IntValue(rt.AsStr(args[0].R).Len()), false
	case core.BStrCharAt:
		c, ok := rt.AsStr(args[0].R).CharAt(args[1].Int())
		if !ok {
			return l.newExc(l.exc.Bounds, rt.StringIndexMessage(args[1].Int())), true
		}
		return rt.CharValue(rune(c)), false
	case core.BStrSubstring:
		s, ok := rt.AsStr(args[0].R).Substring(args[1].Int(), args[2].Int())
		if !ok {
			return l.newExc(l.exc.Bounds, "substring bounds"), true
		}
		return rt.RefValue(env.Str(s)), false
	case core.BStrEquals:
		o, ok := rt.GetStr(args[1].R)
		return rt.BoolValue(ok && o == str(0)), false
	case core.BStrCompareTo:
		return rt.IntValue(rt.CompareStr(str(0), str(1))), false
	case core.BStrIndexOf:
		return rt.IntValue(rt.IndexOfStr(str(0), str(1))), false
	case core.BStrHashCode:
		return rt.IntValue(rt.StringHash(str(0))), false
	case core.BObjHashCode:
		return rt.IntValue(int32(rt.Identity(args[0].R))), false
	case core.BObjEquals:
		return rt.BoolValue(sameRef(args[0].R, args[1].R)), false
	case core.BObjToString:
		return rt.RefValue(env.Str(rt.RefString(args[0].R))), false
	case core.BExcGetMessage:
		if obj, ok := args[0].R.(*rt.Object); ok && len(obj.Fields) > 0 {
			return obj.Fields[0], false
		}
		return rt.Value{}, false
	case core.BPrintlnString:
		env.Println(rt.RefString(args[0].R))
	case core.BPrintlnInt:
		env.Println(rt.StringOf(args[0], 'i'))
	case core.BPrintlnLong:
		env.Println(rt.StringOf(args[0], 'l'))
	case core.BPrintlnDouble:
		env.Println(rt.StringOf(args[0], 'd'))
	case core.BPrintlnBool:
		env.Println(rt.StringOf(args[0], 'z'))
	case core.BPrintlnChar:
		env.Println(rt.StringOf(args[0], 'c'))
	case core.BPrintlnEmpty:
		env.Println("")
	case core.BPrintString:
		env.Print(rt.RefString(args[0].R))
	case core.BPrintInt:
		env.Print(rt.StringOf(args[0], 'i'))
	case core.BPrintLong:
		env.Print(rt.StringOf(args[0], 'l'))
	case core.BPrintDouble:
		env.Print(rt.StringOf(args[0], 'd'))
	case core.BPrintBool:
		env.Print(rt.StringOf(args[0], 'z'))
	case core.BPrintChar:
		env.Print(rt.StringOf(args[0], 'c'))
	default:
		panic(fmt.Sprintf("interp: unimplemented native method %s (builtin %d)",
			mr.Name, mr.Builtin))
	}
	return rt.Value{}, false
}

func sameRef(a, b rt.Ref) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b
}

// execPrim evaluates one primitive operation: the zero-divisor checks
// of the trapping divisions (which raise along this site's exception
// edge, ok false), then the shared evaluator.
func (l *Loader) execPrim(fr *frame, in *core.Instr) (v rt.Value, ok bool) {
	a := fr.val(in.Args[0])
	var b rt.Value
	if len(in.Args) > 1 {
		b = fr.val(in.Args[1])
	}
	var zero bool
	switch in.Prim {
	case core.PIDiv, core.PIRem:
		zero = b.Int() == 0
	case core.PLDiv, core.PLRem:
		zero = b.I == 0
	}
	if zero {
		fr.raiseAt(in, l.newExc(l.exc.Arith, "/ by zero"))
		return rt.Value{}, false
	}
	return l.evalPrim(in.Prim, a, b), true
}
