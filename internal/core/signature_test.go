package core

import (
	"fmt"
	"strings"
	"testing"
)

// sigFixture is a module with just enough tables to spell every
// externalizable opcode: classes A and B extends A, int[], an instance
// and a static field, a static and a virtual method, a constructor, a
// static method whose result is NoType, and the Object methods A's
// dispatch table inherits. build adds one more method, whose body is the
// function under test, gives the others stub bodies, places the bodies
// by the body rule (Module.PlaceBodies) and derives the rest of the
// tables as a consumer would (Module.DeriveTables).
type sigFixture struct {
	m                            *Module
	a, b, ints                   TypeID
	fInst, fStatic               int32
	mStatic, mVirtual, mInstVoid int32 // mInstVoid is A's constructor, an instance method without a slot
	mNoResult                    int32 // a static method whose Result is NoType, not Void
}

func newSigFixture() *sigFixture {
	tt := NewTypeTable()
	fx := &sigFixture{m: &Module{Types: tt, Entry: -1}}
	fx.a = tt.AddClass("A", tt.Object)
	fx.b = tt.AddClass("B", fx.a)
	fx.ints = tt.ArrayOf(tt.Int)
	fx.fInst, fx.fStatic = 0, 1
	fx.m.Fields = []FieldRef{
		{Owner: fx.a, Name: "x", Type: tt.Int},
		{Owner: fx.a, Name: "s", Type: tt.Int, Static: true},
	}
	fx.mStatic, fx.mVirtual, fx.mInstVoid, fx.mNoResult = 0, 1, 2, 3
	fx.m.Methods = []MethodRef{
		{Owner: fx.a, Name: "sm", Params: []TypeID{tt.Int}, Result: tt.Int, Static: true},
		{Owner: fx.a, Name: "vm", Params: []TypeID{tt.Int}, Result: tt.Int},
		{Owner: fx.a, Name: "nm", Result: tt.Void, IsCtor: true},
		{Owner: fx.a, Name: "nr", Result: NoType, Static: true},
		{Owner: tt.Object, Name: "hashCode", Result: tt.Int},
		{Owner: tt.Object, Name: "equals", Params: []TypeID{tt.Object}, Result: tt.Boolean},
		{Owner: tt.Object, Name: "toString", Result: tt.String},
	}
	fx.m.Classes = []*ClassDef{{Type: fx.a, Super: tt.Object}, {Type: fx.b, Super: fx.a}}
	fx.m.StaticInit = []int32{-1, -1}
	return fx
}

// stub is a body for claim c that returns its last parameter when its
// method has a result, and nothing otherwise.
func (fx *sigFixture) stub(c int32) *Func {
	tt := fx.m.Types
	f := NewFunc(c)
	blk := f.NewBlock()
	f.Entry = blk
	ret := &CSTNode{Kind: CReturn, At: blk}
	for i := range fx.m.NumParams(f) {
		in := &Instr{Op: OpParam, Type: fx.m.Param(f, i), Aux: int32(i), Blk: blk}
		f.Define(in)
		blk.Code = append(blk.Code, in)
		ret.Val = in.ID
	}
	if r := fx.m.Result(f); r == NoType || r == tt.Void {
		ret.Val = NoValue
	}
	f.Body = &CSTNode{Kind: CSeq, Kids: []*CSTNode{{Kind: CBlock, Block: blk}, ret}}
	f.Finish()
	return f
}

// derive places the fixture's bodies by the body rule and installs what
// a consumer derives of its tables.
func (fx *sigFixture) derive() {
	fx.m.PlaceBodies()
	if _, err := fx.m.DeriveTables(nil); err != nil {
		panic(err)
	}
}

// sigCase is one well-typed instruction: the planes its function's
// parameters pre-load, the instruction itself (operands drawn from those
// parameters, preparatory instructions added through def), and the ways
// to break its side conditions.
type sigCase struct {
	name   string
	params func(fx *sigFixture) []TypeID
	instr  func(fx *sigFixture, p []ValueID, def func(*Instr) ValueID) *Instr
	// resultWant overrides the message a wrong result plane draws.
	resultWant string
	broken     []sigBreak
}

type sigBreak struct {
	name string
	hack func(fx *sigFixture, in *Instr, p []ValueID)
	want string
}

// build assembles a one-block function around the case's instruction:
// the body of a static void method A.<case> whose parameters are the
// case's, then two decoys (long, double), so every operand has a value on
// a wrong plane to be swapped for. It returns the function, the
// instruction under test and the parameter values.
func (fx *sigFixture) build(c sigCase) (*Func, *Instr, []ValueID) {
	tt := fx.m.Types
	var params []TypeID
	if c.params != nil {
		params = c.params(fx)
	}
	fx.m.Methods = append(fx.m.Methods, MethodRef{Owner: fx.a, Name: c.name, Params: append(params, tt.Long, tt.Double),
		Result: tt.Void, Static: true})
	f := NewFunc(int32(len(fx.m.Methods) - 1))
	blk := f.NewBlock()
	f.Entry = blk
	def := func(in *Instr) ValueID {
		in.Blk = blk
		if in.Type != tt.Void {
			f.Define(in)
		}
		blk.Code = append(blk.Code, in)
		return in.ID
	}
	var p []ValueID
	for i := range fx.m.NumParams(f) {
		p = append(p, def(&Instr{Op: OpParam, Type: fx.m.Param(f, i), Aux: int32(i)}))
	}
	in := c.instr(fx, p, def)
	def(in)
	f.Body = &CSTNode{Kind: CSeq, Kids: []*CSTNode{
		{Kind: CBlock, Block: blk},
		{Kind: CReturn, At: blk},
	}}
	f.Finish()
	fx.m.Funcs = []*Func{f}
	for c := fx.mStatic; c <= fx.mNoResult; c++ {
		fx.m.Funcs = append(fx.m.Funcs, fx.stub(c))
	}
	fx.derive()
	return f, in, p
}

func wantRejected(t *testing.T, m *Module, want string) {
	t.Helper()
	err := m.Verify(VerifyOptions{})
	if err == nil {
		t.Fatalf("accepted; want a rejection mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("rejected with %q; want the rule's message %q", err, want)
	}
}

func sigCases() []sigCase {
	nonArray := func(op string) sigBreak {
		return sigBreak{"non-array type argument",
			func(fx *sigFixture, in *Instr, _ []ValueID) { in.TypeArg = fx.a },
			op + " of non-array type"}
	}
	safe := func(fx *sigFixture, t TypeID) TypeID { return fx.m.Types.SafeRefOf(t) }
	constCase := func(name string, kind ConstKind, typ func(tt *TypeTable) TypeID) sigCase {
		return sigCase{
			name: "const " + name,
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpConst, Type: typ(fx.m.Types), Const: ConstVal{Kind: kind}}
			},
		}
	}
	safeIntsAndInt := func(fx *sigFixture) []TypeID {
		return []TypeID{safe(fx, fx.ints), fx.m.Types.Int, safe(fx, fx.ints)}
	}
	// index checks p[1] against the array p[0].
	index := func(fx *sigFixture, p []ValueID, def func(*Instr) ValueID) ValueID {
		return def(&Instr{Op: OpIndexCheck, Type: fx.m.Types.SafeIndexOf(fx.ints), TypeArg: fx.ints,
			Args: []ValueID{p[0], p[1]}, Bind: p[0]})
	}
	otherArray := sigBreak{"index bound to a different array value",
		func(_ *sigFixture, in *Instr, p []ValueID) { in.Args[0] = p[2] },
		"operand 1: "}

	cases := []sigCase{
		{
			name:   "param",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.m.Types.Int} },
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpParam, Type: fx.m.Types.Int, Aux: 0}
			},
			broken: []sigBreak{
				{"negative index", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Aux = -1 }, "parameter index -1 out of range"},
				{"index past the signature", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Aux = 3 }, "parameter index 3 out of range"},
			},
		},
		constCase("int", KInt, func(tt *TypeTable) TypeID { return tt.Int }),
		constCase("long", KLong, func(tt *TypeTable) TypeID { return tt.Long }),
		constCase("double", KDouble, func(tt *TypeTable) TypeID { return tt.Double }),
		constCase("boolean", KBool, func(tt *TypeTable) TypeID { return tt.Boolean }),
		constCase("char", KChar, func(tt *TypeTable) TypeID { return tt.Char }),
		constCase("string", KString, func(tt *TypeTable) TypeID { return tt.String }),
		{
			name: "const null",
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpConst, Type: fx.a, Const: ConstVal{Kind: KNull}}
			},
			resultWant: "null constant on non-reference plane",
			broken: []sigBreak{
				{"null on a safe-ref plane", func(fx *sigFixture, in *Instr, _ []ValueID) { in.Type = safe(fx, fx.a) },
					"null constant on non-reference plane safe-A"},
				{"no kind", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Const.Kind = KNone }, "constant without kind"},
			},
		},
		{
			name:   "primitive",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.m.Types.Int, fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpPrim, Type: fx.m.Types.Int, Prim: PIAdd, Args: []ValueID{p[0], p[1]}}
			},
			broken: []sigBreak{
				{"throwing primitive", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Prim = PIDiv }, "int.div used with primitive"},
				{"no such primitive", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Prim = PInvalid }, "unknown primitive 0"},
				{"primitive past the alphabet", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Prim = numPrimOps }, "unknown primitive"},
			},
		},
		{
			name:   "xprimitive",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.m.Types.Int, fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpXPrim, Type: fx.m.Types.Int, Prim: PIRem, Args: []ValueID{p[0], p[1]}}
			},
			broken: []sigBreak{
				{"non-throwing primitive", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Prim = PIAdd }, "int.add used with xprimitive"},
			},
		},
		{
			name:   "nullcheck",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.a} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpNullCheck, Type: safe(fx, fx.a), ArgType: fx.a, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{
				{"primitive type", func(fx *sigFixture, in *Instr, _ []ValueID) { in.ArgType = fx.m.Types.Int }, "nullcheck of non-reference type int"},
				{"already safe type", func(fx *sigFixture, in *Instr, _ []ValueID) { in.ArgType = safe(fx, fx.a) }, "nullcheck of non-reference type safe-A"},
			},
		},
		{
			name:   "indexcheck",
			params: safeIntsAndInt,
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpIndexCheck, Type: fx.m.Types.SafeIndexOf(fx.ints), TypeArg: fx.ints,
					Args: []ValueID{p[0], p[1]}, Bind: p[0]}
			},
			broken: []sigBreak{
				nonArray("indexcheck"),
				{"unbound result", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Bind = NoValue }, "must bind to the checked array value"},
				{"result bound to another array", func(_ *sigFixture, in *Instr, p []ValueID) { in.Bind = p[2] }, "must bind to the checked array value"},
			},
		},
		{
			name:   "upcast",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.a} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpUpcast, Type: fx.b, ArgType: fx.a, TypeArg: fx.b, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{
				{"primitive target", func(fx *sigFixture, in *Instr, _ []ValueID) { in.TypeArg = fx.m.Types.Int }, "upcast between non-reference types"},
				{"safe-ref source", func(fx *sigFixture, in *Instr, _ []ValueID) { in.ArgType = safe(fx, fx.a) }, "upcast between non-reference types"},
			},
		},
		{
			name:   "downcast",
			params: func(fx *sigFixture) []TypeID { return []TypeID{safe(fx, fx.b)} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpDowncast, Type: fx.a, ArgType: safe(fx, fx.b), TypeArg: fx.a, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{
				{"adds safety", func(fx *sigFixture, in *Instr, _ []ValueID) { in.ArgType, in.TypeArg = fx.b, safe(fx, fx.a) },
					"downcast cannot add safety (B to safe-A)"},
				{"to a subclass", func(fx *sigFixture, in *Instr, _ []ValueID) { in.ArgType, in.TypeArg = fx.a, fx.b },
					"downcast A to B is not statically safe"},
				{"no such type", func(_ *sigFixture, in *Instr, _ []ValueID) { in.TypeArg = 9999 }, "downcast with invalid types"},
			},
		},
		{
			name:   "getfield",
			params: func(fx *sigFixture) []TypeID { return []TypeID{safe(fx, fx.a)} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpGetField, Type: fx.m.Types.Int, Field: fx.fInst, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{
				{"negative field", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Field = -1 }, "field index -1 out of range"},
				{"field past the table", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Field = 2 }, "field index 2 out of range"},
				{"static field with an object", func(fx *sigFixture, in *Instr, _ []ValueID) { in.Field = fx.fStatic }, "want 0 operands, have 1"},
			},
		},
		{
			name: "getfield static",
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpGetField, Type: fx.m.Types.Int, Field: fx.fStatic}
			},
		},
		{
			name:   "setfield",
			params: func(fx *sigFixture) []TypeID { return []TypeID{safe(fx, fx.a), fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpSetField, Type: fx.m.Types.Void, Field: fx.fInst, Args: []ValueID{p[0], p[1]}}
			},
			broken: []sigBreak{
				{"field past the table", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Field = 7 }, "field index 7 out of range"},
			},
		},
		{
			name:   "setfield static",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpSetField, Type: fx.m.Types.Void, Field: fx.fStatic, Args: []ValueID{p[0]}}
			},
		},
		{
			name:   "getelt",
			params: safeIntsAndInt,
			instr: func(fx *sigFixture, p []ValueID, def func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpGetElt, Type: fx.m.Types.Int, TypeArg: fx.ints, Args: []ValueID{p[0], index(fx, p, def)}}
			},
			broken: []sigBreak{
				nonArray("getelt"),
				otherArray,
				{"unchecked int as the index", func(_ *sigFixture, in *Instr, p []ValueID) { in.Args[1] = p[1] }, "operand 1: "},
			},
		},
		{
			name:   "setelt",
			params: safeIntsAndInt,
			instr: func(fx *sigFixture, p []ValueID, def func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpSetElt, Type: fx.m.Types.Void, TypeArg: fx.ints,
					Args: []ValueID{p[0], index(fx, p, def), p[1]}}
			},
			broken: []sigBreak{nonArray("setelt"), otherArray},
		},
		{
			name:   "arraylen",
			params: func(fx *sigFixture) []TypeID { return []TypeID{safe(fx, fx.ints)} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpArrayLen, Type: fx.m.Types.Int, TypeArg: fx.ints, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{nonArray("arraylen")},
		},
		{
			name:   "xcall static",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpXCall, Type: fx.m.Types.Int, Method: fx.mStatic, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{
				{"negative method", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Method = -1 }, "method index -1 out of range"},
				{"method past the table", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Method = 8 }, "method index 8 out of range"},
			},
		},
		{
			name:   "xcall instance void",
			params: func(fx *sigFixture) []TypeID { return []TypeID{safe(fx, fx.a)} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpXCall, Type: fx.m.Types.Void, Method: fx.mInstVoid, Args: []ValueID{p[0]}}
			},
		},
		{
			// The tables may spell "no result" as NoType; the plane is Void.
			name: "xcall static no-type result",
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpXCall, Type: fx.m.Types.Void, Method: fx.mNoResult}
			},
		},
		{
			name:   "xdispatch",
			params: func(fx *sigFixture) []TypeID { return []TypeID{safe(fx, fx.a), fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpXDispatch, Type: fx.m.Types.Int, Method: fx.mVirtual, Args: []ValueID{p[0], p[1]}}
			},
			broken: []sigBreak{
				{"static method", func(fx *sigFixture, in *Instr, _ []ValueID) { in.Method = fx.mStatic }, "xdispatch of non-virtual method A.sm(int)"},
				{"non-virtual instance method", func(fx *sigFixture, in *Instr, _ []ValueID) { in.Method = fx.mInstVoid }, "xdispatch of non-virtual method A.nm()"},
				{"method past the table", func(_ *sigFixture, in *Instr, _ []ValueID) { in.Method = 8 }, "method index 8 out of range"},
			},
		},
		{
			name: "new",
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpNew, Type: safe(fx, fx.a), TypeArg: fx.a}
			},
			broken: []sigBreak{
				{"array type", func(fx *sigFixture, in *Instr, _ []ValueID) { in.TypeArg = fx.ints }, "new of non-class type int[]"},
				{"primitive type", func(fx *sigFixture, in *Instr, _ []ValueID) { in.TypeArg = fx.m.Types.Int }, "new of non-class type int"},
			},
		},
		{
			name:   "newarray",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.m.Types.Int} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpNewArray, Type: safe(fx, fx.ints), TypeArg: fx.ints, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{nonArray("newarray")},
		},
		{
			name:   "instanceof",
			params: func(fx *sigFixture) []TypeID { return []TypeID{fx.a} },
			instr: func(fx *sigFixture, p []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpInstanceOf, Type: fx.m.Types.Boolean, ArgType: fx.a, TypeArg: fx.b, Args: []ValueID{p[0]}}
			},
			broken: []sigBreak{
				{"primitive target", func(fx *sigFixture, in *Instr, _ []ValueID) { in.TypeArg = fx.m.Types.Int }, "instanceof between non-reference types"},
			},
		},
		{
			name: "catch",
			instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpCatch, Type: fx.m.Types.Throwable}
			},
		},
	}
	return cases
}

// TestSignatureRuleTable exercises the rule, rather than assuming it:
// for every externalizable opcode a minimal well-typed instruction is
// accepted, and then rejected — with the rule's own message — once for
// every way of breaking it: one operand too few, one too many, each
// operand in turn swapped for a value on another plane, the result on
// another plane, and each side condition of the opcode.
func TestSignatureRuleTable(t *testing.T) {
	covered := map[Op]bool{}
	for _, c := range sigCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fx := newSigFixture()
			_, in, _ := fx.build(c)
			covered[in.Op] = true
			if err := fx.m.Verify(VerifyOptions{}); err != nil {
				t.Fatalf("well-typed form rejected: %v", err)
			}
			arity := len(in.Args)
			tt := fx.m.Types

			t.Run("one operand more", func(t *testing.T) {
				fx := newSigFixture()
				_, in, p := fx.build(c)
				in.Args = append(in.Args, p[len(p)-1])
				wantRejected(t, fx.m, fmt.Sprintf("want %d operands, have %d", arity, arity+1))
			})
			if arity > 0 {
				t.Run("one operand fewer", func(t *testing.T) {
					fx := newSigFixture()
					_, in, _ := fx.build(c)
					in.Args = in.Args[:arity-1]
					wantRejected(t, fx.m, fmt.Sprintf("want %d operands, have %d", arity, arity-1))
				})
			}
			for i := 0; i < arity; i++ {
				i := i
				t.Run(fmt.Sprintf("operand %d from a wrong plane", i), func(t *testing.T) {
					fx := newSigFixture()
					f, in, p := fx.build(c)
					decoy := p[len(p)-2] // long
					if f.Value(in.Args[i]).Type == tt.Long {
						decoy = p[len(p)-1] // double
					}
					in.Args[i] = decoy
					wantRejected(t, fx.m, fmt.Sprintf("operand %d: v%d on plane", i, decoy))
				})
			}
			t.Run("result on a wrong plane", func(t *testing.T) {
				fx := newSigFixture()
				_, in, _ := fx.build(c)
				in.Type = tt.Double
				if c.name == "const double" {
					in.Type = tt.Long
				}
				want := c.resultWant
				if want == "" {
					want = "result plane " + tt.Describe(in.Type) + ", want "
				}
				wantRejected(t, fx.m, want)
			})
			for _, br := range c.broken {
				br := br
				t.Run(br.name, func(t *testing.T) {
					fx := newSigFixture()
					_, in, p := fx.build(c)
					br.hack(fx, in, p)
					wantRejected(t, fx.m, br.want)
				})
			}
		})
	}
	for op := OpInvalid + 1; op < Op(NumOps); op++ {
		if op == OpPhi || op == OpMem0 {
			continue
		}
		if !covered[op] {
			t.Errorf("no rule-table case for externalizable opcode %s", op)
		}
	}
}

// TestSignatureRejectsNonCodeOpcodes: what has no place in a transmitted
// code section has no signature.
func TestSignatureRejectsNonCodeOpcodes(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want string
	}{
		{OpInvalid, "unknown opcode 0"},
		{Op(NumOps), "unknown opcode"},
		{OpPhi, "phi outside the phi section"},
		{OpMem0, "memory-state value outside optimization"},
	} {
		fx := newSigFixture()
		c := sigCase{name: tc.op.String(), instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
			return &Instr{Op: tc.op, Type: fx.m.Types.Mem}
		}}
		fx.build(c)
		wantRejected(t, fx.m, tc.want)
	}
}

// TestRefPlaneRule: the three CST reference planes, each accepted on the
// right plane and rejected on a wrong one.
func TestRefPlaneRule(t *testing.T) {
	type fixture struct {
		fx       *sigFixture
		f        *Func
		b, i, th ValueID // a boolean, an int, a Throwable
		node     *CSTNode
	}
	build := func(kind CSTKind, result func(tt *TypeTable) TypeID) *fixture {
		fx := newSigFixture()
		tt := fx.m.Types
		c := sigCase{name: kind.String(),
			params: func(*sigFixture) []TypeID { return []TypeID{tt.Boolean, tt.Int, tt.Throwable} },
			instr: func(*sigFixture, []ValueID, func(*Instr) ValueID) *Instr {
				return &Instr{Op: OpConst, Type: tt.Int, Const: ConstVal{Kind: KInt}}
			}}
		f, _, p := fx.build(c)
		fx.m.Methods[f.Claim].Result = result(tt)
		node := &CSTNode{Kind: kind, At: f.Entry}
		if kind == CIf || kind == CWhile || kind == CDoWhile {
			node.Kids = []*CSTNode{{Kind: CSeq}}
		}
		// The node goes before the trailing return; a void return stays
		// legal whatever the result type, which keeps the tail inert.
		f.Body.Kids = []*CSTNode{f.Body.Kids[0], node, f.Body.Kids[1]}
		return &fixture{fx: fx, f: f, b: p[0], i: p[1], th: p[2], node: node}
	}
	void := func(tt *TypeTable) TypeID { return tt.Void }
	intResult := func(tt *TypeTable) TypeID { return tt.Int }

	for _, tc := range []struct {
		name   string
		kind   CSTKind
		result func(tt *TypeTable) TypeID
		set    func(fx *fixture, v ValueID)
		good   func(fx *fixture) ValueID
		bad    func(fx *fixture) ValueID
		want   string
	}{
		{"if condition", CIf, void, func(fx *fixture, v ValueID) { fx.node.Cond = v },
			func(fx *fixture) ValueID { return fx.b }, func(fx *fixture) ValueID { return fx.i }, "if reference: v"},
		{"thrown value", CThrow, void, func(fx *fixture, v ValueID) { fx.node.Val = v },
			func(fx *fixture) ValueID { return fx.th }, func(fx *fixture) ValueID { return fx.i }, "throw reference: v"},
		{"returned value", CReturn, intResult, func(fx *fixture, v ValueID) { fx.node.Val = v },
			func(fx *fixture) ValueID { return fx.i }, func(fx *fixture) ValueID { return fx.b }, "return reference: v"},
		{"value returned from a void function", CReturn, void, func(fx *fixture, v ValueID) { fx.node.Val = v },
			nil, func(fx *fixture) ValueID { return fx.i }, "value returned from a void function"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.good != nil {
				fx := build(tc.kind, tc.result)
				tc.set(fx, tc.good(fx))
				if err := fx.fx.m.Verify(VerifyOptions{}); err != nil {
					t.Fatalf("reference on the right plane rejected: %v", err)
				}
			}
			fx := build(tc.kind, tc.result)
			tc.set(fx, tc.bad(fx))
			wantRejected(t, fx.fx.m, tc.want)
		})
	}
}

// linkFixture is a module whose tables make every kind of claim about
// function indices: by the body rule, class A's static initializer is
// function 0 (A.<clinit>), and methods 0 and 1 of class A have bodies 1
// and 2 (A.m0, A.m1); function 3 is an orphan that claims method 0
// without being its body.
func linkFixture() *Module {
	fx := newSigFixture()
	m, tt := fx.m, fx.m.Types
	m.Methods = append([]MethodRef{
		{Owner: fx.a, Name: "m0", Result: tt.Void, Static: true},
		{Owner: fx.a, Name: "m1", Result: tt.Void, Static: true},
	}, m.Methods[fx.mNoResult+1:]...)
	for _, claim := range []int32{0, 1, -1, 0} {
		f := NewFunc(claim)
		blk := f.NewBlock()
		f.Entry = blk
		f.Body = &CSTNode{Kind: CSeq, Kids: []*CSTNode{{Kind: CBlock, Block: blk}, {Kind: CReturn, At: blk}}}
		f.Finish()
		m.Funcs = append(m.Funcs, f)
	}
	fx.derive()
	return m
}

// TestLinkRule: the per-function link rule and the body rule behind it,
// one violation at a time. A body holds only its claim, so a claim that
// disagrees with the tables' is the one link violation a body can carry;
// a name or signature that disagrees with its claim cannot be built.
// Verify installs the body indices the body rule gives over those the
// tables carry, and a static-initializer entry says only that its class
// has one: a body that then stands where the rule places another is
// refused.
func TestLinkRule(t *testing.T) {
	if err := linkFixture().Verify(VerifyOptions{}); err != nil {
		t.Fatalf("well-linked module (orphan body included) rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		hack func(m *Module)
		want string // "" for a module Verify admits with the rule installed
	}{
		{"body claimed by m0 names m1", func(m *Module) { m.Funcs[1].Claim = 1 },
			"function 1 (A.m0): body of method 0 (m0) names method 1"},
		{"body claimed by m1 names no method", func(m *Module) { m.Funcs[2].Claim = -1 },
			"function 2 (A.m1): body of method 1 (m1) names method -1"},
		{"static initializer naming a method", func(m *Module) { m.Funcs[0].Claim = 0 },
			"function 0 (A.<clinit>): static initializer claims A.m0"},
		{"two methods claim one body", func(m *Module) { m.Methods[1].FuncIdx = 1 }, ""},
		{"method body is also a static initializer", func(m *Module) { m.StaticInit[1] = 2 },
			"function 1 (B.<clinit>): static initializer claims A.m0"},
		{"one static initializer for two classes", func(m *Module) { m.StaticInit[1] = 0 },
			"function 1 (B.<clinit>): static initializer claims A.m0"},
		{"a class without a static-initializer entry", func(m *Module) { m.StaticInit = m.StaticInit[:1] },
			"1 static-initializer entries for 2 class definitions"},
		{"a static-initializer entry without a class", func(m *Module) { m.StaticInit = append(m.StaticInit, -1) },
			"3 static-initializer entries for 2 class definitions"},
		{"body index past the functions", func(m *Module) { m.Methods[1].FuncIdx = 4 }, ""},
		{"static initializer past the functions", func(m *Module) { m.StaticInit[1] = 4 },
			"function 1 (B.<clinit>): static initializer claims A.m0"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantVerdict(t, linkFixture, tc.hack, tc.want) })
	}

	// The same rule answers for an arriving function what Verify answers
	// for the whole unit: the schedule is the caller's, not the rule's.
	m := linkFixture()
	adm, err := m.DeriveTables(nil)
	if err != nil {
		t.Fatal(err)
	}
	stray := *m.Funcs[3]
	for j, f := range []*Func{m.Funcs[0], m.Funcs[1], m.Funcs[2], m.Funcs[3]} {
		if err := adm.Admit(j, f); err != nil {
			t.Errorf("function %d refused on arrival: %v", j, err)
		}
	}
	if err := adm.Link(2, &stray); err == nil || !strings.Contains(err.Error(), "function 2 (A.m1): body of method 1 (m1) names method 0") {
		t.Errorf("a body naming m0 linked at index 2: %v", err)
	}
}
