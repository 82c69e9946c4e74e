package ssabuild

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/sema"
	"safetsa/internal/lang/token"
)

// ---------------------------------------------------------------------
// Constants (pre-loaded into the initial basic block, section 5)

func (fb *fnBuilder) constVal(k constKey, cv core.ConstVal, plane core.TypeID) core.ValueID {
	if v, ok := fb.consts[k]; ok {
		return v
	}
	in := fb.b.instrs.One()
	*in = core.Instr{Op: core.OpConst, Type: plane, Const: cv, Blk: fb.f.Entry}
	fb.f.Define(in)
	fb.constInstrs = append(fb.constInstrs, in)
	fb.consts[k] = in.ID
	return in.ID
}

func (fb *fnBuilder) constInt(v int32) core.ValueID {
	return fb.constVal(constKey{kind: core.KInt, i: int64(v)},
		core.ConstVal{Kind: core.KInt, I: int64(v)}, fb.tt().Int)
}

func (fb *fnBuilder) constLong(v int64) core.ValueID {
	return fb.constVal(constKey{kind: core.KLong, i: v},
		core.ConstVal{Kind: core.KLong, I: v}, fb.tt().Long)
}

func (fb *fnBuilder) constDouble(v float64) core.ValueID {
	return fb.constVal(constKey{kind: core.KDouble, d: v},
		core.ConstVal{Kind: core.KDouble, D: v}, fb.tt().Double)
}

func (fb *fnBuilder) constBool(v bool) core.ValueID {
	i := int64(0)
	if v {
		i = 1
	}
	return fb.constVal(constKey{kind: core.KBool, i: i},
		core.ConstVal{Kind: core.KBool, I: i}, fb.tt().Boolean)
}

func (fb *fnBuilder) constChar(v rune) core.ValueID {
	return fb.constVal(constKey{kind: core.KChar, i: int64(v)},
		core.ConstVal{Kind: core.KChar, I: int64(v)}, fb.tt().Char)
}

func (fb *fnBuilder) constString(s string) core.ValueID {
	return fb.constVal(constKey{kind: core.KString, s: s},
		core.ConstVal{Kind: core.KString, S: s}, fb.tt().String)
}

// constNull pre-loads a typed null on the given reference plane.
func (fb *fnBuilder) constNull(plane core.TypeID) core.ValueID {
	return fb.constVal(constKey{kind: core.KNull, t: plane},
		core.ConstVal{Kind: core.KNull}, plane)
}

// zeroValue yields the default value for a plane (used for uninitialized
// locals and missing returns).
func (fb *fnBuilder) zeroValue(plane core.TypeID) core.ValueID {
	tt := fb.tt()
	switch plane {
	case tt.Int:
		return fb.constInt(0)
	case tt.Long:
		return fb.constLong(0)
	case tt.Double:
		return fb.constDouble(0)
	case tt.Boolean:
		return fb.constBool(false)
	case tt.Char:
		return fb.constChar(0)
	default:
		return fb.constNull(plane)
	}
}

// ---------------------------------------------------------------------
// Plane adjustment and conversions

// planeOf returns the plane a value currently lives on.
func (fb *fnBuilder) planeOf(v core.ValueID) core.TypeID {
	return fb.f.Value(v).Type
}

// adjustRef moves a reference value to the wanted reference plane with a
// statically safe downcast (safe-ref → ref, subclass → superclass). It
// panics when the move would not be statically safe — such IR must come
// from an OpUpcast instead.
func (fb *fnBuilder) adjustRef(v core.ValueID, want core.TypeID) core.ValueID {
	have := fb.planeOf(v)
	if have == want {
		return v
	}
	return fb.emit(core.Instr{
		Op: core.OpDowncast, Type: want,
		ArgType: have, TypeArg: want,
		Args: fb.vals(v),
	})
}

// safeRef produces the value on the wanted safe-ref plane, emitting a
// null check when the value is not already known non-null.
func (fb *fnBuilder) safeRef(v core.ValueID, wantSafe core.TypeID) core.ValueID {
	tt := fb.tt()
	have := tt.MustGet(fb.planeOf(v))
	if have.Kind == core.TSafeRef {
		return fb.adjustRef(v, wantSafe)
	}
	checked := fb.emit(core.Instr{
		Op: core.OpNullCheck, Type: tt.SafeRefOf(have.ID),
		ArgType: have.ID,
		Args:    fb.vals(v),
	})
	return fb.adjustRef(checked, wantSafe)
}

func (fb *fnBuilder) prim(op core.PrimOp, args ...core.ValueID) core.ValueID {
	return fb.primOf(op, fb.vals(args...))
}

// primOf is prim over an operand vector the instruction may keep.
func (fb *fnBuilder) primOf(op core.PrimOp, args []core.ValueID) core.ValueID {
	sig := op.Sig()
	o := core.OpPrim
	if sig.Throws {
		o = core.OpXPrim
	}
	return fb.emit(core.Instr{
		Op: o, Type: core.PlaneType(fb.tt(), sig.Result),
		Prim: op, Args: args,
	})
}

// numConv emits the numeric conversion chain between primitive planes.
func (fb *fnBuilder) numConv(v core.ValueID, from, to sema.TypeKind) core.ValueID {
	if from == to {
		return v
	}
	// Normalize char through int.
	if from == sema.KindChar {
		v = fb.prim(core.PC2I, v)
		return fb.numConv(v, sema.KindInt, to)
	}
	switch {
	case from == sema.KindInt && to == sema.KindLong:
		return fb.prim(core.PI2L, v)
	case from == sema.KindInt && to == sema.KindDouble:
		return fb.prim(core.PI2D, v)
	case from == sema.KindInt && to == sema.KindChar:
		return fb.prim(core.PI2C, v)
	case from == sema.KindLong && to == sema.KindInt:
		return fb.prim(core.PL2I, v)
	case from == sema.KindLong && to == sema.KindDouble:
		return fb.prim(core.PL2D, v)
	case from == sema.KindLong && to == sema.KindChar:
		return fb.numConv(fb.prim(core.PL2I, v), sema.KindInt, sema.KindChar)
	case from == sema.KindDouble && to == sema.KindInt:
		return fb.prim(core.PD2I, v)
	case from == sema.KindDouble && to == sema.KindLong:
		return fb.prim(core.PD2L, v)
	case from == sema.KindDouble && to == sema.KindChar:
		return fb.numConv(fb.prim(core.PD2I, v), sema.KindInt, sema.KindChar)
	}
	panic(fmt.Sprintf("ssabuild: no numeric conversion %v -> %v", from, to))
}

// convert coerces a built value from its sema type to the target sema
// type (widening conversions plus the narrowing ones produced by casts).
func (fb *fnBuilder) convert(v core.ValueID, from, to *sema.Type) core.ValueID {
	if from == to {
		return v
	}
	if from.IsNumeric() && to.IsNumeric() {
		return fb.numConv(v, from.Kind, to.Kind)
	}
	if to.IsRef() {
		return fb.adjustRef(v, fb.b.typeOf(to))
	}
	panic(fmt.Sprintf("ssabuild: no conversion %s -> %s", from, to))
}

// exprConv builds e and converts it to the target type; null literals are
// materialized directly on the target plane.
func (fb *fnBuilder) exprConv(e ast.Expr, want *sema.Type) core.ValueID {
	if _, ok := e.(*ast.NullLit); ok && want.IsRef() {
		return fb.constNull(fb.b.typeOf(want))
	}
	v := fb.expr(e)
	if fb.cur == nil {
		return v
	}
	have := sema.TypeOf(e)
	if want.IsRef() {
		return fb.adjustRef(v, fb.b.typeOf(want))
	}
	return fb.convert(v, have, want)
}

func (fb *fnBuilder) exprBool(e ast.Expr) core.ValueID {
	return fb.exprConv(e, fb.b.prog.Boolean)
}

// toStringVal converts any value to the String plane for concatenation.
func (fb *fnBuilder) toStringVal(e ast.Expr) core.ValueID {
	t := sema.TypeOf(e)
	if t == fb.b.prog.String {
		return fb.expr(e)
	}
	if t.IsRef() {
		v := fb.expr(e)
		return fb.prim(core.PSOfRef, fb.adjustRef(v, fb.tt().Object))
	}
	v := fb.expr(e)
	switch t.Kind {
	case sema.KindInt:
		return fb.prim(core.PSOfInt, v)
	case sema.KindLong:
		return fb.prim(core.PSOfLong, v)
	case sema.KindDouble:
		return fb.prim(core.PSOfDouble, v)
	case sema.KindBoolean:
		return fb.prim(core.PSOfBool, v)
	case sema.KindChar:
		return fb.prim(core.PSOfChar, v)
	}
	panic("ssabuild: cannot convert " + t.String() + " to String")
}

// ---------------------------------------------------------------------
// L-values

// lvalue captures the evaluated address parts of an assignable
// expression so compound assignments evaluate them once: a local; a
// field with its object (none for statics, the receiver for implicit
// this); or an array element with its array and index.
type lvalue struct {
	typ *sema.Type

	local *sema.Local

	field *sema.FieldSym
	fidx  int32        // its field-table entry, interned when the l-value is made
	obj   core.ValueID // explicit object, null-checked at each access
	this  bool         // implicit this: the receiver, no check

	arr, idx core.ValueID // an element's array and index, unchecked
	arrID    core.TypeID
}

func (fb *fnBuilder) evalLValue(e ast.Expr) lvalue {
	switch e := e.(type) {
	case *ast.Ident:
		switch sym := e.Sym.(type) {
		case *sema.Local:
			return lvalue{typ: sym.Type, local: sym}
		case *sema.FieldSym:
			return fb.fieldLValue(sym, core.NoValue)
		}
	case *ast.FieldAccess:
		sym, _ := e.Sym.(*sema.FieldSym)
		if sym == nil {
			panic("ssabuild: assignment to non-field member access")
		}
		if sym.Static {
			return fb.fieldLValue(sym, core.NoValue)
		}
		return fb.fieldLValue(sym, fb.expr(e.X))
	case *ast.IndexExpr:
		// The array and index subexpressions are evaluated once, but
		// the null and bounds checks happen at each access, matching
		// Java's evaluation order (the checks of a[i] = f() come after
		// f() runs); the producer-side CSE merges duplicate checks.
		arrType := sema.TypeOf(e.X)
		lv := lvalue{typ: arrType.Elem, arrID: fb.b.typeOf(arrType)}
		lv.arr = fb.expr(e.X)
		lv.idx = fb.exprConv(e.Index, fb.b.prog.Int)
		return lv
	}
	panic(fmt.Sprintf("ssabuild: not an l-value: %T", e))
}

// fieldLValue is the l-value of a field: of obj when there is one, else
// of the receiver (implicit this) unless the field is static.
func (fb *fnBuilder) fieldLValue(sym *sema.FieldSym, obj core.ValueID) lvalue {
	return lvalue{typ: sym.Type, field: sym, fidx: fb.b.fieldRef(sym),
		obj: obj, this: obj == core.NoValue && !sym.Static}
}

// access emits the checks of one element access and returns the checked
// array and index.
func (fb *fnBuilder) access(lv *lvalue) (safeArr, si core.ValueID) {
	tt := fb.tt()
	safeArr = fb.safeRef(lv.arr, tt.SafeRefOf(lv.arrID))
	si = fb.emit(core.Instr{
		Op: core.OpIndexCheck, Type: tt.SafeIndexOf(lv.arrID),
		TypeArg: lv.arrID, Bind: safeArr,
		Args: fb.vals(safeArr, lv.idx),
	})
	return safeArr, si
}

// object returns a field access's operand vector: room for extra more
// operands after the object (none for statics). An explicit object is
// null-checked at each access (see IndexExpr above).
func (fb *fnBuilder) object(lv *lvalue, extra int) []core.ValueID {
	if lv.field.Static {
		return fb.b.args.Take(extra)
	}
	want := fb.tt().SafeRefOf(fb.b.classID(lv.field.Owner))
	var obj core.ValueID
	if lv.this {
		obj = fb.adjustRef(fb.recv, want)
	} else {
		obj = fb.safeRef(lv.obj, want)
	}
	args := fb.b.args.Take(1 + extra)
	args[0] = obj
	return args
}

// load reads the l-value's current value.
func (fb *fnBuilder) load(lv *lvalue) core.ValueID {
	switch {
	case lv.local != nil:
		return fb.get(lv.local)
	case lv.field != nil:
		return fb.emit(core.Instr{
			Op: core.OpGetField, Type: fb.b.typeOf(lv.field.Type),
			Field: lv.fidx, Args: fb.object(lv, 0),
		})
	}
	safeArr, si := fb.access(lv)
	return fb.emit(core.Instr{
		Op: core.OpGetElt, Type: fb.b.typeOf(lv.typ),
		TypeArg: lv.arrID,
		Args:    fb.vals(safeArr, si),
	})
}

// store writes v to the l-value.
func (fb *fnBuilder) store(lv *lvalue, v core.ValueID) {
	switch {
	case lv.local != nil:
		fb.set(lv.local, v)
	case lv.field != nil:
		args := fb.object(lv, 1)
		args[len(args)-1] = v
		fb.emit(core.Instr{
			Op: core.OpSetField, Type: fb.tt().Void,
			Field: lv.fidx, Args: args,
		})
	default:
		safeArr, si := fb.access(lv)
		fb.emit(core.Instr{
			Op: core.OpSetElt, Type: fb.tt().Void,
			TypeArg: lv.arrID,
			Args:    fb.vals(safeArr, si, v),
		})
	}
}

// ---------------------------------------------------------------------
// Expressions

func (fb *fnBuilder) expr(e ast.Expr) core.ValueID {
	switch e := e.(type) {
	case *ast.IntLit:
		return fb.constInt(e.Value)
	case *ast.LongLit:
		return fb.constLong(e.Value)
	case *ast.DoubleLit:
		return fb.constDouble(e.Value)
	case *ast.BoolLit:
		return fb.constBool(e.Value)
	case *ast.CharLit:
		return fb.constChar(e.Value)
	case *ast.StringLit:
		return fb.constString(e.Value)
	case *ast.NullLit:
		return fb.constNull(fb.tt().Object)
	case *ast.ThisExpr:
		return fb.recv
	case *ast.Ident:
		switch sym := e.Sym.(type) {
		case *sema.Local:
			return fb.get(sym)
		case *sema.FieldSym:
			lv := fb.fieldLValue(sym, core.NoValue)
			return fb.load(&lv)
		}
		panic("ssabuild: identifier " + e.Name + " is not a value")
	case *ast.FieldAccess:
		if e.IsLength {
			arrType := sema.TypeOf(e.X)
			arrID := fb.b.typeOf(arrType)
			arr := fb.expr(e.X)
			safe := fb.safeRef(arr, fb.tt().SafeRefOf(arrID))
			return fb.emit(core.Instr{
				Op: core.OpArrayLen, Type: fb.tt().Int,
				TypeArg: arrID, Args: fb.vals(safe),
			})
		}
		lv := fb.evalLValue(e)
		return fb.load(&lv)
	case *ast.IndexExpr:
		lv := fb.evalLValue(e)
		return fb.load(&lv)
	case *ast.Assign:
		return fb.buildAssign(e)
	case *ast.IncDec:
		return fb.buildIncDec(e)
	case *ast.Unary:
		return fb.buildUnary(e)
	case *ast.Binary:
		return fb.buildBinary(e)
	case *ast.CallExpr:
		return fb.buildCall(e)
	case *ast.SuperCall:
		return fb.buildSuperCall(e)
	case *ast.NewObject:
		return fb.buildNewObject(e)
	case *ast.NewArray:
		return fb.buildNewArray(e)
	case *ast.Cast:
		return fb.buildCast(e)
	case *ast.InstanceOf:
		v := fb.expr(e.X)
		plain := fb.plainRef(v)
		return fb.emit(core.Instr{
			Op: core.OpInstanceOf, Type: fb.tt().Boolean,
			ArgType: fb.planeOf(plain), TypeArg: fb.b.typeOf(fb.b.prog.InstanceOfType[e]),
			Args: fb.vals(plain),
		})
	case *ast.Cond:
		t := sema.TypeOf(e)
		return fb.ifValue(e.C,
			func() core.ValueID { return fb.exprConv(e.Then, t) },
			func() core.ValueID { return fb.exprConv(e.Else, t) },
			fb.b.typeOf(t))
	case *ast.SuperCtorCall:
		panic("ssabuild: super(...) outside constructor preamble")
	}
	panic(fmt.Sprintf("ssabuild: unhandled expression %T", e))
}

// plainRef strips a safe-ref plane back to the plain reference plane,
// with InstanceOf's TypeArg fixed for the instanceof use.
func (fb *fnBuilder) plainRef(v core.ValueID) core.ValueID {
	tt := fb.tt()
	t := tt.MustGet(fb.planeOf(v))
	if t.Kind == core.TSafeRef {
		return fb.adjustRef(v, t.Base)
	}
	return v
}

func (fb *fnBuilder) buildAssign(e *ast.Assign) core.ValueID {
	lv := fb.evalLValue(e.LHS)
	if e.Op == token.ASSIGN {
		v := fb.exprConv(e.RHS, lv.typ)
		if fb.cur == nil {
			return v
		}
		fb.store(&lv, v)
		return v
	}
	op := e.Op.CompoundOp()
	old := fb.load(&lv)
	var v core.ValueID
	if lv.typ == fb.b.prog.String && op == token.ADD {
		v = fb.prim(core.PSConcat, old, fb.toStringVal(e.RHS))
	} else {
		// Compute in the promoted type, then narrow back (Java's
		// compound-assignment implicit cast).
		rt := sema.TypeOf(e.RHS)
		ct := fb.compoundType(lv.typ, rt, op)
		lw := fb.convert(old, lv.typ, ct)
		var rw core.ValueID
		if op == token.SHL || op == token.SHR {
			rw = fb.exprConv(e.RHS, fb.b.prog.Int)
		} else {
			rw = fb.exprConv(e.RHS, ct)
		}
		v = fb.numericOp(op, ct, lw, rw)
		v = fb.convert(v, ct, lv.typ)
	}
	if fb.cur == nil {
		return v
	}
	fb.store(&lv, v)
	return v
}

// compoundType is the computation type of a compound assignment.
func (fb *fnBuilder) compoundType(lt, rt *sema.Type, op token.Kind) *sema.Type {
	p := fb.b.prog
	if op == token.SHL || op == token.SHR {
		if lt.Kind == sema.KindChar {
			return p.Int
		}
		return lt
	}
	if lt == p.Boolean {
		return p.Boolean
	}
	return p.Promote(lt, rt)
}

func (fb *fnBuilder) buildIncDec(e *ast.IncDec) core.ValueID {
	lv := fb.evalLValue(e.X)
	old := fb.load(&lv)
	p := fb.b.prog
	ct := lv.typ
	if ct.Kind == sema.KindChar {
		ct = p.Int
	}
	w := fb.convert(old, lv.typ, ct)
	var one core.ValueID
	var op core.PrimOp
	switch ct.Kind {
	case sema.KindInt:
		one, op = fb.constInt(1), core.PIAdd
		if e.Op == token.DEC {
			op = core.PISub
		}
	case sema.KindLong:
		one, op = fb.constLong(1), core.PLAdd
		if e.Op == token.DEC {
			op = core.PLSub
		}
	case sema.KindDouble:
		one, op = fb.constDouble(1), core.PDAdd
		if e.Op == token.DEC {
			op = core.PDSub
		}
	default:
		panic("ssabuild: ++/-- on non-numeric")
	}
	nv := fb.prim(op, w, one)
	fb.store(&lv, fb.convert(nv, ct, lv.typ))
	return old // postfix value
}

func (fb *fnBuilder) buildUnary(e *ast.Unary) core.ValueID {
	t := sema.TypeOf(e)
	switch e.Op {
	case token.ADD:
		return fb.exprConv(e.X, t)
	case token.SUB:
		v := fb.exprConv(e.X, t)
		switch t.Kind {
		case sema.KindInt:
			return fb.prim(core.PINeg, v)
		case sema.KindLong:
			return fb.prim(core.PLNeg, v)
		case sema.KindDouble:
			return fb.prim(core.PDNeg, v)
		}
	case token.NOT:
		return fb.prim(core.PBNot, fb.exprBool(e.X))
	case token.TILDE:
		v := fb.exprConv(e.X, t)
		switch t.Kind {
		case sema.KindInt:
			return fb.prim(core.PIXor, v, fb.constInt(-1))
		case sema.KindLong:
			return fb.prim(core.PLXor, v, fb.constLong(-1))
		}
	}
	panic("ssabuild: unhandled unary " + e.Op.String())
}

// numericOp maps a binary token and computation type to the primitive.
func (fb *fnBuilder) numericOp(op token.Kind, t *sema.Type, x, y core.ValueID) core.ValueID {
	var p core.PrimOp
	switch t.Kind {
	case sema.KindInt:
		switch op {
		case token.ADD:
			p = core.PIAdd
		case token.SUB:
			p = core.PISub
		case token.MUL:
			p = core.PIMul
		case token.QUO:
			p = core.PIDiv
		case token.REM:
			p = core.PIRem
		case token.SHL:
			p = core.PIShl
		case token.SHR:
			p = core.PIShr
		case token.AND:
			p = core.PIAnd
		case token.OR:
			p = core.PIOr
		case token.XOR:
			p = core.PIXor
		}
	case sema.KindLong:
		switch op {
		case token.ADD:
			p = core.PLAdd
		case token.SUB:
			p = core.PLSub
		case token.MUL:
			p = core.PLMul
		case token.QUO:
			p = core.PLDiv
		case token.REM:
			p = core.PLRem
		case token.SHL:
			p = core.PLShl
		case token.SHR:
			p = core.PLShr
		case token.AND:
			p = core.PLAnd
		case token.OR:
			p = core.PLOr
		case token.XOR:
			p = core.PLXor
		}
	case sema.KindDouble:
		switch op {
		case token.ADD:
			p = core.PDAdd
		case token.SUB:
			p = core.PDSub
		case token.MUL:
			p = core.PDMul
		case token.QUO:
			p = core.PDDiv
		case token.REM:
			p = core.PDRem
		}
	case sema.KindBoolean:
		switch op {
		case token.AND:
			p = core.PBAnd
		case token.OR:
			p = core.PBOr
		case token.XOR:
			p = core.PBXor
		}
	}
	if p == core.PInvalid {
		panic(fmt.Sprintf("ssabuild: no primitive for %s on %s", op, t))
	}
	return fb.prim(p, x, y)
}

// comparison primitives per promoted type.
var cmpOps = map[sema.TypeKind]map[token.Kind]core.PrimOp{
	sema.KindInt: {
		token.EQL: core.PIEq, token.NEQ: core.PINe,
		token.LSS: core.PILt, token.LEQ: core.PILe,
		token.GTR: core.PIGt, token.GEQ: core.PIGe,
	},
	sema.KindLong: {
		token.EQL: core.PLEq, token.NEQ: core.PLNe,
		token.LSS: core.PLLt, token.LEQ: core.PLLe,
		token.GTR: core.PLGt, token.GEQ: core.PLGe,
	},
	sema.KindDouble: {
		token.EQL: core.PDEq, token.NEQ: core.PDNe,
		token.LSS: core.PDLt, token.LEQ: core.PDLe,
		token.GTR: core.PDGt, token.GEQ: core.PDGe,
	},
}

func (fb *fnBuilder) buildBinary(e *ast.Binary) core.ValueID {
	p := fb.b.prog
	xt, yt := sema.TypeOf(e.X), sema.TypeOf(e.Y)
	switch e.Op {
	case token.LAND:
		return fb.ifValue(e.X,
			func() core.ValueID { return fb.exprBool(e.Y) },
			func() core.ValueID { return fb.constBool(false) },
			fb.tt().Boolean)
	case token.LOR:
		return fb.ifValue(e.X,
			func() core.ValueID { return fb.constBool(true) },
			func() core.ValueID { return fb.exprBool(e.Y) },
			fb.tt().Boolean)
	case token.ADD:
		if sema.TypeOf(e) == p.String {
			return fb.prim(core.PSConcat, fb.toStringVal(e.X), fb.toStringVal(e.Y))
		}
	case token.EQL, token.NEQ:
		if xt.IsRef() && yt.IsRef() {
			x := fb.refOperandAsObject(e.X)
			y := fb.refOperandAsObject(e.Y)
			op := core.PREq
			if e.Op == token.NEQ {
				op = core.PRNe
			}
			return fb.prim(op, x, y)
		}
		if xt == p.Boolean && yt == p.Boolean {
			op := core.PBEq
			if e.Op == token.NEQ {
				op = core.PBNe
			}
			return fb.prim(op, fb.expr(e.X), fb.expr(e.Y))
		}
	}
	switch e.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		ct := p.Promote(xt, yt)
		x := fb.exprConv(e.X, ct)
		y := fb.exprConv(e.Y, ct)
		return fb.prim(cmpOps[ct.Kind][e.Op], x, y)
	case token.SHL, token.SHR:
		lt := xt
		if lt.Kind == sema.KindChar {
			lt = p.Int
		}
		x := fb.exprConv(e.X, lt)
		y := fb.exprConv(e.Y, p.Int)
		return fb.numericOp(e.Op, lt, x, y)
	default:
		ct := sema.TypeOf(e)
		x := fb.exprConv(e.X, ct)
		y := fb.exprConv(e.Y, ct)
		return fb.numericOp(e.Op, ct, x, y)
	}
}

// refOperandAsObject evaluates a reference operand onto the Object plane
// (reference comparison is a primitive of the root reference type).
func (fb *fnBuilder) refOperandAsObject(e ast.Expr) core.ValueID {
	if _, ok := e.(*ast.NullLit); ok {
		return fb.constNull(fb.tt().Object)
	}
	v := fb.expr(e)
	return fb.adjustRef(fb.plainRef(v), fb.tt().Object)
}

// ifValue lowers value selection (?:, &&, ||) into an if-else whose arms
// produce a value merged by a phi, per the paper's footnote on
// short-circuit operators.
func (fb *fnBuilder) ifValue(cond ast.Expr, thenFn, elseFn func() core.ValueID, plane core.TypeID) core.ValueID {
	condV := fb.exprBool(cond)
	c := fb.cur
	parent := fb.seq
	node := fb.node(core.CSTNode{Kind: core.CIf, At: c, Cond: condV})
	// As in buildIf: the then-arm builds on the incoming snapshot, the
	// else-arm on the copy taken here.
	entryVars := fb.snapshotVars()

	var thenSeq []*core.CSTNode
	fb.enter(fb.branchBlock(c), &thenSeq)
	tv := thenFn()
	thenEnd, thenVars := fb.cur, fb.vars

	fb.vars = entryVars
	var elseSeq []*core.CSTNode
	fb.enter(fb.branchBlock(c), &elseSeq)
	ev := elseFn()
	elseEnd, elseVars := fb.cur, fb.vars
	node.Kids = fb.kids(fb.seqOf(thenSeq), fb.seqOf(elseSeq))

	*parent = append(*parent, node)

	var edges [2]edgeSnap
	snaps := edges[:0]
	var arms [2]core.ValueID
	vals := arms[:0]
	if thenEnd != nil {
		snaps = append(snaps, edgeSnap{thenEnd, thenVars})
		vals = append(vals, tv)
	}
	if elseEnd != nil {
		snaps = append(snaps, edgeSnap{elseEnd, elseVars})
		vals = append(vals, ev)
	}
	fb.join(snaps, c, parent)
	if fb.cur == nil {
		return core.NoValue
	}
	if len(vals) == 1 {
		return vals[0]
	}
	if vals[0] == vals[1] {
		return vals[0]
	}
	phi := fb.newPhi(fb.cur, plane, fb.vals(vals...))
	fb.cur.Phis = append(fb.cur.Phis, phi)
	return phi.ID
}

func (fb *fnBuilder) buildSuperCall(e *ast.SuperCall) core.ValueID {
	m := e.Sym.(*sema.MethodSym)
	recv := fb.adjustRef(fb.recv, fb.tt().SafeRefOf(fb.b.classID(m.Owner)))
	args := fb.callArgs(1, e.Args, m.Params)
	args[0] = recv
	return fb.emitCall(core.OpXCall, m, args)
}

// callArgs evaluates a call's arguments into its operand vector, after
// lead slots left for the caller to fill (the receiver's).
func (fb *fnBuilder) callArgs(lead int, args []ast.Expr, params []*sema.Type) []core.ValueID {
	out := fb.b.args.Take(lead + len(args))
	for i, a := range args {
		out[lead+i] = fb.exprConv(a, params[i])
	}
	return out
}

func (fb *fnBuilder) emitCall(op core.Op, m *sema.MethodSym, args []core.ValueID) core.ValueID {
	return fb.emit(core.Instr{
		Op: op, Type: fb.b.typeOf(m.Return),
		Method: fb.b.methodRef(m), Args: args,
	})
}

// mathPrims maps Math builtins onto type-subordinate primitives.
var mathPrims = map[core.BuiltinID]core.PrimOp{
	core.BMathSqrt:  core.PDSqrt,
	core.BMathAbsD:  core.PDAbs,
	core.BMathAbsI:  core.PIAbs,
	core.BMathAbsL:  core.PLAbs,
	core.BMathMinI:  core.PIMin,
	core.BMathMaxI:  core.PIMax,
	core.BMathMinL:  core.PLMin,
	core.BMathMaxL:  core.PLMax,
	core.BMathMinD:  core.PDMin,
	core.BMathMaxD:  core.PDMax,
	core.BMathPow:   core.PDPow,
	core.BMathFloor: core.PDFloor,
	core.BMathCeil:  core.PDCeil,
	core.BMathLog:   core.PDLog,
	core.BMathExp:   core.PDExp,
	core.BMathSin:   core.PDSin,
	core.BMathCos:   core.PDCos,
}

func (fb *fnBuilder) buildCall(e *ast.CallExpr) core.ValueID {
	switch sym := e.Sym.(type) {
	case *sema.Builtin:
		args := fb.callArgs(0, e.Args, sym.Params)
		if p, ok := mathPrims[sym.ID]; ok {
			return fb.primOf(p, args)
		}
		// System.out builtins: imported static methods with observable
		// effects, invoked via xcall so they are never CSE'd away.
		return fb.emit(core.Instr{
			Op: core.OpXCall, Type: fb.tt().Void,
			Method: fb.b.printRef(sym), Args: args,
		})
	case *sema.MethodSym:
		if sym.Static {
			return fb.emitCall(core.OpXCall, sym, fb.callArgs(0, e.Args, sym.Params))
		}
		args := fb.callArgs(1, e.Args, sym.Params)
		var recvV core.ValueID
		if e.Recv != nil {
			recvV = fb.expr(e.Recv)
		} else {
			recvV = fb.recv
		}
		recv := fb.safeRef(recvV, fb.tt().SafeRefOf(fb.b.classID(sym.Owner)))
		op := core.OpXDispatch
		if sym.Owner.Imported || sym.IsCtor {
			// Imported classes are final hosts: their methods bind
			// statically (see DESIGN.md).
			op = core.OpXCall
		}
		args[0] = recv
		return fb.emitCall(op, sym, args)
	}
	panic("ssabuild: unresolved call " + e.Name)
}

func (fb *fnBuilder) buildNewObject(e *ast.NewObject) core.ValueID {
	cls := sema.TypeOf(e).Class
	cid := fb.b.classID(cls)
	obj := fb.emit(core.Instr{
		Op: core.OpNew, Type: fb.tt().SafeRefOf(cid), TypeArg: cid,
	})
	ctor, _ := e.Ctor.(*sema.MethodSym)
	if ctor != nil {
		args := fb.callArgs(1, e.Args, ctor.Params)
		args[0] = fb.adjustRef(obj, fb.tt().SafeRefOf(fb.b.classID(ctor.Owner)))
		fb.emitCall(core.OpXCall, ctor, args)
	}
	return obj
}

func (fb *fnBuilder) buildNewArray(e *ast.NewArray) core.ValueID {
	t := sema.TypeOf(e) // full array type
	return fb.newArrayDims(t, e.Lens)
}

// newArrayDims allocates a (possibly multi-dimensional) array: the first
// sized dimension directly, the rest with a synthesized fill loop, the
// classic lowering of Java's multianewarray.
func (fb *fnBuilder) newArrayDims(t *sema.Type, lens []ast.Expr) core.ValueID {
	tt := fb.tt()
	arrID := fb.b.typeOf(t)
	n := fb.exprConv(lens[0], fb.b.prog.Int)
	arr := fb.emit(core.Instr{
		Op: core.OpNewArray, Type: tt.SafeRefOf(arrID),
		TypeArg: arrID, Args: fb.vals(n),
	})
	if len(lens) == 1 {
		return arr
	}
	// for (i = 0; i < n; i++) arr[i] = new Elem[...](rest)
	elem := t.Elem
	i := fb.addSynthLocal(fb.b.prog.Int)
	fb.set(i, fb.constInt(0))
	arrLocal := fb.addSynthLocal(t)
	fb.set(arrLocal, fb.adjustRef(arr, arrID))
	nLocal := fb.addSynthLocal(fb.b.prog.Int)
	fb.set(nLocal, n)

	cond := synthExpr(&ast.Binary{Op: token.LSS,
		X: synthIdent(i), Y: synthIdent(nLocal)}, fb.b.prog.Boolean)
	seqHolder := fb.seq
	assigned := localSet(fb.b.sets.Take(fb.nlocals))
	assigned.add(i)
	fb.buildLoop(cond, func(bodySeq *[]*core.CSTNode) {
		safe := fb.safeRef(fb.get(arrLocal), tt.SafeRefOf(arrID))
		si := fb.emit(core.Instr{
			Op: core.OpIndexCheck, Type: tt.SafeIndexOf(arrID),
			TypeArg: arrID, Bind: safe,
			Args: fb.vals(safe, fb.get(i)),
		})
		inner := fb.newArrayDims(elem, lens[1:])
		fb.emit(core.Instr{
			Op: core.OpSetElt, Type: tt.Void,
			TypeArg: arrID,
			Args:    fb.vals(safe, si, fb.adjustRef(inner, fb.b.typeOf(elem))),
		})
		fb.set(i, fb.prim(core.PIAdd, fb.get(i), fb.constInt(1)))
	}, nil, assigned, seqHolder)

	v := fb.get(arrLocal)
	fb.dropSynthLocals(3)
	return v
}

// buildCast lowers casts: numeric conversion chains, free downcasts for
// widening reference casts, checked upcasts for narrowing ones.
func (fb *fnBuilder) buildCast(e *ast.Cast) core.ValueID {
	p := fb.b.prog
	from := sema.TypeOf(e.X)
	to := sema.TypeOf(e)
	if from.IsNumeric() && to.IsNumeric() {
		return fb.convert(fb.expr(e.X), from, to)
	}
	if _, ok := e.X.(*ast.NullLit); ok {
		return fb.constNull(fb.b.typeOf(to))
	}
	v := fb.plainRef(fb.expr(e.X))
	if p.Widens(from, to) {
		return fb.adjustRef(v, fb.b.typeOf(to))
	}
	return fb.emit(core.Instr{
		Op: core.OpUpcast, Type: fb.b.typeOf(to),
		ArgType: fb.planeOf(v), TypeArg: fb.b.typeOf(to),
		Args: fb.vals(v),
	})
}

// ---------------------------------------------------------------------
// Synthetic locals for desugared constructs

// addSynthLocal brings a compiler-made local into scope, numbered after
// every local the function has had so far; snapshots taken from now on
// have its slot.
func (fb *fnBuilder) addSynthLocal(t *sema.Type) *sema.Local {
	l := &sema.Local{Name: fmt.Sprintf("$t%d", len(fb.scope)), Type: t, Index: fb.nlocals}
	fb.nlocals++
	fb.scope = append(fb.scope, l)
	return l
}

func (fb *fnBuilder) dropSynthLocals(n int) {
	fb.popScope(len(fb.scope) - n)
}

func synthIdent(l *sema.Local) ast.Expr {
	id := &ast.Ident{Name: l.Name, Sym: l}
	id.SetTypeInfo(l.Type)
	return id
}

func synthExpr(e ast.Expr, t *sema.Type) ast.Expr {
	e.SetTypeInfo(t)
	return e
}
