package parser

import (
	"reflect"
	"strings"
	"testing"

	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/token"
)

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	f, errs := ParseFile("t.tj", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func firstMethodBody(t *testing.T, src string) []ast.Stmt {
	t.Helper()
	f := parseOK(t, "class C { void m() { "+src+" } }")
	return f.Classes[0].Methods[0].Body.Stmts
}

func firstExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	stmts := firstMethodBody(t, "x = "+src+";")
	return stmts[0].(*ast.ExprStmt).X.(*ast.Assign).RHS
}

func TestClassShapes(t *testing.T) {
	f := parseOK(t, `
class A extends B {
    int x;
    static double y = 1.5;
    int[] data, more;
    A(int v) { x = v; }
    int get() throws Exception { return x; }
    static void s() {}
}`)
	c := f.Classes[0]
	if c.Name != "A" || c.Super != "B" {
		t.Fatalf("class header wrong: %+v", c)
	}
	if len(c.Fields) != 4 {
		t.Fatalf("fields: %d", len(c.Fields))
	}
	if _, ok := c.Fields[3].Type.(*ast.ArrayTypeExpr); !ok {
		t.Error("comma declarator lost the array type")
	}
	if len(c.Methods) != 3 || !c.Methods[0].IsCtor || !c.Methods[2].Static {
		t.Fatalf("methods wrong")
	}
}

func TestPrecedence(t *testing.T) {
	// a + b * c parses as a + (b*c)
	e := firstExpr(t, "a + b * c").(*ast.Binary)
	if e.Op != token.ADD {
		t.Fatal("top is not +")
	}
	if inner, ok := e.Y.(*ast.Binary); !ok || inner.Op != token.MUL {
		t.Fatal("* did not bind tighter")
	}
	// a << b + c parses as a << (b+c)
	e = firstExpr(t, "a << b + c").(*ast.Binary)
	if e.Op != token.SHL {
		t.Fatal("top is not <<")
	}
	// a || b && c parses as a || (b&&c)
	e = firstExpr(t, "a || b && c").(*ast.Binary)
	if e.Op != token.LOR {
		t.Fatal("top is not ||")
	}
	// comparison binds tighter than ==: a < b == c < d
	e = firstExpr(t, "a < b == c < d").(*ast.Binary)
	if e.Op != token.EQL {
		t.Fatal("top is not ==")
	}
}

func TestCastDisambiguation(t *testing.T) {
	if _, ok := firstExpr(t, "(Foo) bar").(*ast.Cast); !ok {
		t.Error("(Foo) bar must be a cast")
	}
	if _, ok := firstExpr(t, "(foo) + bar").(*ast.Binary); !ok {
		t.Error("(foo) + bar must be an addition, not a cast")
	}
	if _, ok := firstExpr(t, "(int) d").(*ast.Cast); !ok {
		t.Error("(int) d must be a cast")
	}
	if _, ok := firstExpr(t, "(Foo[]) xs").(*ast.Cast); !ok {
		t.Error("(Foo[]) xs must be a cast")
	}
	if _, ok := firstExpr(t, "(Foo) !b").(*ast.Cast); !ok {
		t.Error("(Foo) !b must be a cast")
	}
}

func TestStatements(t *testing.T) {
	stmts := firstMethodBody(t, `
        int i = 0;
        for (int j = 0; j < 10; j++) { i += j; }
        while (i > 0) i--;
        do { i++; } while (i < 3);
        if (i == 3) return; else i = 4;
        try { i = 1 / i; } catch (Exception e) { i = 0; } finally { i++; }
        throw new Exception("x");`)
	wantTypes := []string{"*ast.VarDeclStmt", "*ast.ForStmt", "*ast.WhileStmt",
		"*ast.DoWhileStmt", "*ast.IfStmt", "*ast.TryStmt", "*ast.ThrowStmt"}
	if len(stmts) != len(wantTypes) {
		t.Fatalf("%d statements", len(stmts))
	}
	for i, s := range stmts {
		got := strings.TrimPrefix(typeName(s), "ast.")
		want := strings.TrimPrefix(wantTypes[i], "*ast.")
		if got != want {
			t.Errorf("stmt %d is %s, want %s", i, got, want)
		}
	}
}

func typeName(v interface{}) string {
	s := strings.TrimPrefix(strings.TrimPrefix(
		strings.TrimSpace(strings.Split(strings.TrimPrefix(
			strings.TrimSpace(sprintT(v)), "*"), " ")[0]), "ast."), "*")
	return s
}

func sprintT(v interface{}) string {
	switch v.(type) {
	case *ast.VarDeclStmt:
		return "ast.VarDeclStmt"
	case *ast.ForStmt:
		return "ast.ForStmt"
	case *ast.WhileStmt:
		return "ast.WhileStmt"
	case *ast.DoWhileStmt:
		return "ast.DoWhileStmt"
	case *ast.IfStmt:
		return "ast.IfStmt"
	case *ast.TryStmt:
		return "ast.TryStmt"
	case *ast.ThrowStmt:
		return "ast.ThrowStmt"
	}
	return "other"
}

func TestNewForms(t *testing.T) {
	if _, ok := firstExpr(t, "new Foo(1, 2)").(*ast.NewObject); !ok {
		t.Error("new Foo(...)")
	}
	na, ok := firstExpr(t, "new int[3][4]").(*ast.NewArray)
	if !ok || len(na.Lens) != 2 || na.ExtraDims != 0 {
		t.Errorf("new int[3][4]: %+v", na)
	}
	na = firstExpr(t, "new double[n][]").(*ast.NewArray)
	if len(na.Lens) != 1 || na.ExtraDims != 1 {
		t.Errorf("new double[n][]: %+v", na)
	}
}

func TestSuperForms(t *testing.T) {
	f := parseOK(t, `
class D extends B {
    D() { super(1); }
    int m() { return super.m(); }
}`)
	ctor := f.Classes[0].Methods[0]
	es := ctor.Body.Stmts[0].(*ast.ExprStmt)
	if _, ok := es.X.(*ast.SuperCtorCall); !ok {
		t.Error("super(1) not parsed as constructor call")
	}
	ret := f.Classes[0].Methods[1].Body.Stmts[0].(*ast.ReturnStmt)
	if _, ok := ret.X.(*ast.SuperCall); !ok {
		t.Error("super.m() not parsed")
	}
}

func TestPrefixIncrementLowering(t *testing.T) {
	stmts := firstMethodBody(t, "++i;")
	asn, ok := stmts[0].(*ast.ExprStmt).X.(*ast.Assign)
	if !ok || asn.Op != token.ADDASSIGN {
		t.Error("++i must lower to i += 1")
	}
	stmts = firstMethodBody(t, "i++;")
	if _, ok := stmts[0].(*ast.ExprStmt).X.(*ast.IncDec); !ok {
		t.Error("i++ must stay postfix IncDec")
	}
}

func TestTernary(t *testing.T) {
	c, ok := firstExpr(t, "a ? b : c ? d : e").(*ast.Cond)
	if !ok {
		t.Fatal("no conditional")
	}
	if _, ok := c.Else.(*ast.Cond); !ok {
		t.Error("?: must be right associative")
	}
}

func TestErrorRecovery(t *testing.T) {
	for _, src := range []string{
		"class {",
		"class C { void m() { if } }",
		"class C { int x = ; }",
		"class C { void m() { 1 + ; } }",
		"class C { void m() { try {} } }", // try without catch/finally
		"class C { void m() { new int[]; } }",
	} {
		_, errs := ParseFile("t", src)
		if len(errs) == 0 {
			t.Errorf("%q: no error reported", src)
		}
	}
	// The parser must not loop forever or panic on truncated input.
	for _, src := range []string{"class C { void m() {", "class C { int", "class"} {
		ParseFile("t", src)
	}
}

func TestAssignTargetsValidated(t *testing.T) {
	_, errs := ParseFile("t", "class C { void m() { 1 = 2; } }")
	if len(errs) == 0 {
		t.Error("assignment to a literal accepted")
	}
	_, errs = ParseFile("t", "class C { void m() { f()++; } }")
	if len(errs) == 0 {
		t.Error("increment of a call accepted")
	}
}

// TestIntLiteralRanges pins the JLS §3.10.1 rules: decimal int literals
// cap at 2147483647 (2147483648 legal only under unary minus), hex int
// literals are 32-bit two's-complement patterns, and the long
// equivalents scale the same rules to 64 bits. The out-of-range cases
// are regression tests — they used to parse silently with wrapped
// values.
func TestIntLiteralRanges(t *testing.T) {
	intVal := func(src string) int32 {
		t.Helper()
		switch e := firstExpr(t, src).(type) {
		case *ast.IntLit:
			return e.Value
		default:
			t.Fatalf("%s parsed to %T, want IntLit", src, e)
			return 0
		}
	}
	longVal := func(src string) int64 {
		t.Helper()
		switch e := firstExpr(t, src).(type) {
		case *ast.LongLit:
			return e.Value
		default:
			t.Fatalf("%s parsed to %T, want LongLit", src, e)
			return 0
		}
	}

	if got := intVal("2147483647"); got != 2147483647 {
		t.Errorf("max int literal = %d", got)
	}
	if got := intVal("-2147483648"); got != -2147483648 {
		t.Errorf("min int literal = %d", got)
	}
	if got := intVal("0xFFFFFFFF"); got != -1 {
		t.Errorf("0xFFFFFFFF = %d, want -1 (two's complement)", got)
	}
	if got := intVal("0x80000000"); got != -2147483648 {
		t.Errorf("0x80000000 = %d, want MinInt32", got)
	}
	if got := intVal("-0x80000000"); got != -2147483648 {
		t.Errorf("-0x80000000 = %d, want MinInt32 (negation wraps)", got)
	}
	if got := longVal("9223372036854775807L"); got != 9223372036854775807 {
		t.Errorf("max long literal = %d", got)
	}
	if got := longVal("-9223372036854775808L"); got != -9223372036854775808 {
		t.Errorf("min long literal = %d", got)
	}
	if got := longVal("0xFFFFFFFFFFFFFFFFL"); got != -1 {
		t.Errorf("0xFFFF...L = %d, want -1", got)
	}

	for _, bad := range []string{
		"2147483648",           // only legal under unary minus
		"-2147483649",          // below MinInt32
		"4999999999",           // wraps if truncated blindly
		"0x100000000",          // 33 bits
		"9223372036854775808L", // only legal under unary minus
		"-9223372036854775809L",
		"0x10000000000000000L", // 65 bits
	} {
		src := "class C { void m() { x = " + bad + "; } }"
		if _, errs := ParseFile("t.tj", src); len(errs) == 0 {
			t.Errorf("%s: out-of-range literal accepted", bad)
		}
	}
}

// treeDepth is how many nodes stand on the longest path down from v: a
// node is a pointer to one of package ast's structs, whatever field or
// slice it hangs in.
func treeDepth(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return treeDepth(v.Elem())
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return 1 + treeDepth(v.Elem())
	case reflect.Struct:
		d := 0
		for i := 0; i < v.NumField(); i++ {
			d = max(d, treeDepth(v.Field(i)))
		}
		return d
	case reflect.Slice:
		d := 0
		for i := 0; i < v.Len(); i++ {
			d = max(d, treeDepth(v.Index(i)))
		}
		return d
	}
	return 0
}

// TestDepthBound holds maxDepth to what its comment says. Every shape is
// a tree that grows a level per repetition, through nesting the parser
// recurses into or through a chain one of its loops builds; at any size
// the source is either refused with the depth error or parsed into a tree
// no deeper than the bound and a constant — never a deeper tree, which is
// what the walks behind the parser would recurse over. The bound counts
// depth, not size: chains that stand beside each other do not add up, a
// chain that is another's first operand does.
func TestDepthBound(t *testing.T) {
	rep := strings.Repeat
	expr := func(e string) string {
		return "class C { int f; C g() { return this; } void m(int[] a, boolean c, C o) { int x = " + e + "; } }"
	}
	stmt := func(s string) string { return "class C { void m(boolean c) { " + s + " } }" }
	shapes := map[string]func(n int) string{
		"parens":    func(n int) string { return expr(rep("(", n) + "1" + rep(")", n)) },
		"sum":       func(n int) string { return expr(rep("1+", n) + "1") },
		"right sum": func(n int) string { return expr(rep("1+(", n) + "1" + rep(")", n)) },
		"negations": func(n int) string { return expr(rep("- ", n) + "1") },
		"casts":     func(n int) string { return expr(rep("(int)", n) + "1") },
		"subscript": func(n int) string { return expr("a" + rep("[0]", n)) },
		"index":     func(n int) string { return expr(rep("a[", n) + "0" + rep("]", n)) },
		"fields":    func(n int) string { return expr("o" + rep(".f", n)) },
		"calls":     func(n int) string { return expr("o" + rep(".g()", n)) },
		"arguments": func(n int) string { return expr(rep("m(", n) + "1" + rep(")", n)) },
		"assigns":   func(n int) string { return expr(rep("x=", n) + "1") },
		"ternaries": func(n int) string { return expr(rep("c?1:", n) + "0") },
		"instances": func(n int) string { return expr("o" + rep(" instanceof C", n)) },
		"new dims":  func(n int) string { return expr("new int[1]" + rep("[]", n)) },
		"blocks":    func(n int) string { return stmt(rep("{", n) + rep("}", n)) },
		"ifs":       func(n int) string { return stmt(rep("if(c)", n) + ";") },
		"elses":     func(n int) string { return stmt(rep("if(c);else ", n) + ";") },
		"whiles":    func(n int) string { return stmt(rep("while(c)", n) + ";") },
		"dos":       func(n int) string { return stmt(rep("do ", n) + ";" + rep("while(c);", n)) },
		"fors":      func(n int) string { return stmt(rep("for(;;)", n) + ";") },
		"tries":     func(n int) string { return stmt(rep("try{", n) + rep("}finally{}", n)) },
		"catches":   func(n int) string { return stmt(rep("try{}catch(Exception e){", n) + rep("}", n)) },
		"type dims": func(n int) string { return stmt("int" + rep("[]", n) + " x;") },
		"decl dims": func(n int) string { return stmt("int x" + rep("[]", n) + ";") },
		"field dims": func(n int) string {
			return "class C { int" + rep("[]", n) + " x" + rep("[]", n) + "; }"
		},
		"nested first operands": func(n int) string { return expr(rep("(", 20) + "1" + rep(rep("+1", n/20)+")", 20)) },
	}
	const slack = 8 // the levels from the file down to a method's statements, and a leaf's own
	for name, shape := range shapes {
		refused := false
		for _, n := range []int{maxDepth / 4, maxDepth / 2, maxDepth - 2*slack, maxDepth, maxDepth + 1, 2 * maxDepth, 8 * maxDepth} {
			f, errs := ParseFile("t.tj", shape(n))
			switch {
			case len(errs) == 0:
				if d := treeDepth(reflect.ValueOf(f)); d > maxDepth+slack {
					t.Errorf("%s × %d: parsed into a tree %d deep", name, n, d)
				}
				if refused {
					t.Errorf("%s × %d: accepted, a smaller one was refused", name, n)
				}
			case len(errs) == 1 && strings.Contains(errs[0].Error(), "nesting deeper"):
				refused = true
				if n <= maxDepth/4 {
					t.Errorf("%s × %d: refused: %v", name, n, errs[0])
				}
			default:
				t.Errorf("%s × %d: %v", name, n, errs)
			}
		}
		if !refused {
			t.Errorf("%s: never refused", name)
		}
	}

	// Depth, not size: many long chains side by side are no deeper than one.
	wide := rep("x = "+rep("1+", maxDepth/2)+"1; ", 8) + "x = m(" + rep(rep("1+", maxDepth/2)+"1, ", 8) + "1);"
	if _, errs := ParseFile("t.tj", "class C { int m() { int x; "+wide+" } }"); len(errs) > 0 {
		t.Errorf("chains beside each other were added up: %v", errs[0])
	}
}
