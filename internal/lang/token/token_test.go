package token

import "testing"

func TestLookup(t *testing.T) {
	if Lookup("while") != WHILE || Lookup("class") != CLASS || Lookup("instanceof") != INSTANCEOF {
		t.Error("keyword lookup broken")
	}
	if Lookup("whilst") != IDENT || Lookup("") != IDENT {
		t.Error("non-keywords must map to IDENT")
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// Tighter operators bind higher.
	ordered := [][]Kind{
		{LOR}, {LAND}, {OR}, {XOR}, {AND},
		{EQL, NEQ}, {LSS, LEQ, GTR, GEQ, INSTANCEOF},
		{SHL, SHR}, {ADD, SUB}, {MUL, QUO, REM},
	}
	for level, ks := range ordered {
		for _, k := range ks {
			if k.Precedence() != level+1 {
				t.Errorf("%v precedence = %d, want %d", k, k.Precedence(), level+1)
			}
		}
	}
	if SEMI.Precedence() != 0 || NOT.Precedence() != 0 {
		t.Error("non-binary tokens must have precedence 0")
	}
}

func TestAssignOps(t *testing.T) {
	compound := map[Kind]Kind{
		ADDASSIGN: ADD, SUBASSIGN: SUB, MULASSIGN: MUL, QUOASSIGN: QUO,
		REMASSIGN: REM, ANDASSIGN: AND, ORASSIGN: OR, XORASSIGN: XOR,
		SHLASSIGN: SHL, SHRASSIGN: SHR,
	}
	for k, want := range compound {
		if !k.IsAssignOp() {
			t.Errorf("%v not recognized as assignment", k)
		}
		if k.CompoundOp() != want {
			t.Errorf("%v compound op = %v, want %v", k, k.CompoundOp(), want)
		}
	}
	if !ASSIGN.IsAssignOp() || ADD.IsAssignOp() {
		t.Error("IsAssignOp boundaries wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("CompoundOp on plain ASSIGN must panic")
		}
	}()
	ASSIGN.CompoundOp()
}

func TestStringForms(t *testing.T) {
	if ADD.String() != "+" || WHILE.String() != "while" || IDENT.String() != "IDENT" {
		t.Error("token spellings wrong")
	}
	tok := Token{Kind: INTLIT, Lit: "42"}
	if tok.String() != `INTLIT("42")` {
		t.Errorf("token string %q", tok.String())
	}
	var p Pos
	if p.String() != "<input>:0:0" {
		t.Errorf("zero pos renders %q", p.String())
	}
}
