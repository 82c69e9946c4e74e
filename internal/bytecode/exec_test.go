package bytecode

import (
	"bytes"
	"testing"

	"safetsa/internal/rt"
)

// handProgram assembles a one-class program whose static "go()I" method
// runs the given code, for direct VM-level testing.
func handProgram(code []Instr, maxLocals int, exc []ExcEntry, pool func(cp *ConstPool)) *Program {
	cf := &ClassFile{Name: "H", Super: "Object", CP: NewConstPool()}
	if pool != nil {
		pool(cf.CP)
	}
	cf.Methods = []*Method{{
		Name: "go", Desc: "()I", Static: true,
		Code: code, MaxLocals: maxLocals, ExcTable: exc,
	}}
	return &Program{Classes: []*ClassFile{cf}}
}

func runHand(t *testing.T, p *Program) rt.Value {
	t.Helper()
	var out bytes.Buffer
	vm, err := NewVM(p, &rt.Env{Out: &out, MaxSteps: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	c := vm.classes["H"]
	v, threw := vm.call(vm.activation(0, c, c.methods["go()I"]))
	if threw {
		t.Fatal(uncaught(v))
	}
	return v
}

func TestStackOps(t *testing.T) {
	// dup_x1: 1 2 -> 2 1 2; then iadd twice: 2 + (1+2) = 5.
	v := runHand(t, handProgram([]Instr{
		{Op: ICONST, A: 1},
		{Op: ICONST, A: 2},
		{Op: DUPX1},
		{Op: IADD},
		{Op: IADD},
		{Op: IRETURN},
	}, 0, nil, nil))
	if v.Int() != 5 {
		t.Fatalf("dup_x1 result %d", v.Int())
	}

	// swap: 7 3 -> 3 7; isub = 3-7 = -4.
	v = runHand(t, handProgram([]Instr{
		{Op: ICONST, A: 7},
		{Op: ICONST, A: 3},
		{Op: SWAP},
		{Op: ISUB},
		{Op: IRETURN},
	}, 0, nil, nil))
	if v.Int() != -4 {
		t.Fatalf("swap result %d", v.Int())
	}

	// dup2 over two ints: 1 2 -> 1 2 1 2; iadd; iadd; iadd = 6.
	v = runHand(t, handProgram([]Instr{
		{Op: ICONST, A: 1},
		{Op: ICONST, A: 2},
		{Op: DUP2},
		{Op: IADD},
		{Op: IADD},
		{Op: IADD},
		{Op: IRETURN},
	}, 0, nil, nil))
	if v.Int() != 6 {
		t.Fatalf("dup2 result %d", v.Int())
	}
}

func TestWideValuesOnStack(t *testing.T) {
	// Long arithmetic through the two-word stack model.
	var longIdx, long2 int32
	p := handProgram([]Instr{
		{Op: LCONST, A: 0}, // patched below
		{Op: LCONST, A: 0},
		{Op: LADD},
		{Op: L2I},
		{Op: IRETURN},
	}, 0, nil, nil)
	cp := p.Classes[0].CP
	longIdx = cp.Long(1 << 33)
	long2 = cp.Long(5)
	p.Classes[0].Methods[0].Code[0].A = longIdx
	p.Classes[0].Methods[0].Code[1].A = long2
	v := runHand(t, p)
	if v.Int() != 5 { // low 32 bits of 2^33+5
		t.Fatalf("long add low word %d", v.Int())
	}

	// POP2 discards one long.
	p = handProgram([]Instr{
		{Op: LCONST, A: 0},
		{Op: POP2},
		{Op: ICONST, A: 9},
		{Op: IRETURN},
	}, 0, nil, nil)
	p.Classes[0].Methods[0].Code[0].A = p.Classes[0].CP.Long(123)
	if v := runHand(t, p); v.Int() != 9 {
		t.Fatalf("pop2 result %d", v.Int())
	}
}

func TestExceptionTableDispatch(t *testing.T) {
	// 1/0 with a handler that returns 42; the handler range must catch.
	p := handProgram([]Instr{
		{Op: ICONST, A: 1},
		{Op: ICONST, A: 0},
		{Op: IDIV}, // throws at pc 2
		{Op: IRETURN},
		{Op: POP}, // handler at pc 4: drop the exception ref
		{Op: ICONST, A: 42},
		{Op: IRETURN},
	}, 0, []ExcEntry{{Start: 0, End: 4, Handler: 4}}, nil)
	if v := runHand(t, p); v.Int() != 42 {
		t.Fatalf("handler result %d", v.Int())
	}

	// A handler with a non-matching catch type must not fire.
	p2 := handProgram([]Instr{
		{Op: ICONST, A: 1},
		{Op: ICONST, A: 0},
		{Op: IDIV},
		{Op: IRETURN},
		{Op: POP},
		{Op: ICONST, A: 42},
		{Op: IRETURN},
	}, 0, nil, nil)
	cp := p2.Classes[0].CP
	p2.Classes[0].Methods[0].ExcTable = []ExcEntry{
		{Start: 0, End: 4, Handler: 4, CatchType: cp.Class("NullPointerException")},
	}
	var out bytes.Buffer
	vm, err := NewVM(p2, &rt.Env{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	c := vm.classes["H"]
	if _, threw := vm.call(vm.activation(0, c, c.methods["go()I"])); !threw {
		t.Fatal("wrong-typed handler caught the exception")
	}
}

func TestBranchSemantics(t *testing.T) {
	// if_icmpge skips the then-path.
	v := runHand(t, handProgram([]Instr{
		{Op: ICONST, A: 5},
		{Op: ICONST, A: 9},
		{Op: IFICMPGE, A: 5},
		{Op: ICONST, A: 1},
		{Op: IRETURN},
		{Op: ICONST, A: 2},
		{Op: IRETURN},
	}, 0, nil, nil))
	if v.Int() != 1 {
		t.Fatalf("5 < 9 took the wrong branch: %d", v.Int())
	}

	// iinc + goto loop: sum 0..4 via locals.
	v = runHand(t, handProgram([]Instr{
		{Op: ICONST, A: 0},
		{Op: ISTORE, A: 0}, // i
		{Op: ICONST, A: 0},
		{Op: ISTORE, A: 1}, // s
		{Op: ILOAD, A: 0},  // pc 4: loop head
		{Op: ICONST, A: 5},
		{Op: IFICMPGE, A: 13},
		{Op: ILOAD, A: 1},
		{Op: ILOAD, A: 0},
		{Op: IADD},
		{Op: ISTORE, A: 1},
		{Op: IINC, A: 0, B: 1},
		{Op: GOTO, A: 4},
		{Op: ILOAD, A: 1}, // pc 13
		{Op: IRETURN},
	}, 2, nil, nil))
	if v.Int() != 10 {
		t.Fatalf("loop sum %d", v.Int())
	}
}

func TestNullChecksInFusedOps(t *testing.T) {
	// aconst_null; arraylength -> NPE caught by a catch-all handler.
	v := runHand(t, handProgram([]Instr{
		{Op: ACONSTNULL},
		{Op: ARRAYLENGTH},
		{Op: IRETURN},
		{Op: POP},
		{Op: ICONST, A: -7},
		{Op: IRETURN},
	}, 0, []ExcEntry{{Start: 0, End: 3, Handler: 3}}, nil))
	if v.Int() != -7 {
		t.Fatalf("NPE not raised by arraylength: %d", v.Int())
	}
}

func TestDcmpNaNOrdering(t *testing.T) {
	// DCMPL with a NaN pushes -1; DCMPG pushes 1.
	mk := func(op Opcode) *Program {
		p := handProgram([]Instr{
			{Op: DCONST, A: 0},
			{Op: DCONST, A: 0},
			{Op: op},
			{Op: IRETURN},
		}, 0, nil, nil)
		cp := p.Classes[0].CP
		nan := cp.Double(0)
		p.Classes[0].CP.Entries[nan].D = 0.0 / zero
		p.Classes[0].Methods[0].Code[0].A = nan
		p.Classes[0].Methods[0].Code[1].A = cp.Double(1)
		return p
	}
	if v := runHand(t, mk(DCMPL)); v.Int() != -1 {
		t.Fatalf("dcmpl NaN = %d", v.Int())
	}
	if v := runHand(t, mk(DCMPG)); v.Int() != 1 {
		t.Fatalf("dcmpg NaN = %d", v.Int())
	}
}

var zero = 0.0 // defeats constant folding of 0.0/0.0 in Go
