package sema_test

import (
	"fmt"
	"strings"
	"testing"

	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
)

func check(t *testing.T, src string) (*sema.Program, []error) {
	t.Helper()
	f, perrs := parser.ParseFile("t.tj", src)
	if len(perrs) > 0 {
		t.Fatalf("parse errors: %v", perrs)
	}
	return sema.Check(f)
}

func checkOK(t *testing.T, src string) *sema.Program {
	t.Helper()
	p, errs := check(t, src)
	if len(errs) > 0 {
		t.Fatalf("unexpected sema errors: %v", errs)
	}
	return p
}

func expectError(t *testing.T, src, fragment string) {
	t.Helper()
	_, errs := check(t, src)
	for _, e := range errs {
		if strings.Contains(e.Error(), fragment) {
			return
		}
	}
	t.Fatalf("expected error containing %q, got %v", fragment, errs)
}

func TestHierarchy(t *testing.T) {
	p := checkOK(t, `
class A { int x; }
class B extends A { int y; }
class C extends B {}
`)
	a, b, c := p.Classes["A"], p.Classes["B"], p.Classes["C"]
	if !c.IsSubclassOf(a) || a.IsSubclassOf(b) {
		t.Error("subclass relation wrong")
	}
	if f := c.LookupField("x"); f == nil || f.Owner != a {
		t.Error("inherited field lookup failed")
	}
}

func TestHierarchyErrors(t *testing.T) {
	expectError(t, "class A extends A {}", "cycle")
	expectError(t, "class A extends B {} class B extends A {}", "cycle")
	expectError(t, "class A extends Nowhere {}", "unknown class")
	expectError(t, "class A {} class A {}", "redeclared")
	expectError(t, "class String {}", "imported host class")
	expectError(t, "class A extends String {}", "may not extend String")
	expectError(t, "class A { static int f() { return 1; } } class B extends A {} class C extends B { int f() { return 2; } }",
		"t.tj:1:83: method C.f() int overrides a static method")
	expectError(t, "class A { int f() { return 1; } } class B extends A { long f() { return 2; } }",
		"t.tj:1:55: method B.f() long overrides A.f() int with a different return type")

	// A cycle is reported once, at a class on it, whatever the order the
	// checker's maps keep: D extends the cycle and is not on it.
	const cycle = "class A extends B {} class B extends C {} class C extends A {} class D extends A {}"
	for range 50 {
		if _, errs := check(t, cycle); fmt.Sprint(errs) != "[t.tj:1:1: inheritance cycle involving A]" {
			t.Fatalf("cycle diagnostics %v, want one at A", errs)
		}
	}
}

// TestOverridesSeeOnlyTheirSuperclasses: the override check sees what a
// class inherits and nothing of its siblings' subtrees: a static above is
// found past a class that declares none, the nearest of two inherited
// methods is the one a result is checked against, and methods of five
// parameters are told apart by the ones past the fourth.
func TestOverridesSeeOnlyTheirSuperclasses(t *testing.T) {
	checkOK(t, `
class A { static void f() { } int g() { return 1; } }
class B extends A { }
class C { void f() { } long g() { return 1; } }
class D extends C { void f() { } long g() { return 2; } }
class E extends A { long g(int x) { return 1; } }
class F { void h(int a, int b, int c, int d, int e) { } }
class G extends F { static void h(int a, int b, int c, int d, long e) { } }
class H extends G { void h(int a, int b, int c, int d, int e) { } }
`)
	_, errs := check(t, `
class A { long g() { return 1; } }
class B extends A { int g() { return 2; } }
class C extends B { int g() { return 3; } }
class D extends C { static void s() { } }
class E extends D { void s() { } }
class F extends A { void s() { } }
`)
	want := "[t.tj:3:21: method B.g() int overrides A.g() long with a different return type " +
		"t.tj:6:21: method E.s() void overrides a static method]"
	if fmt.Sprint(errs) != want {
		t.Errorf("errors %v, want %s", errs, want)
	}
}

func TestOverloadResolution(t *testing.T) {
	checkOK(t, `
class A {
    int f(int x) { return 1; }
    int f(double x) { return 2; }
    int f(long x) { return 3; }
    void go() {
        f(1);        // exact int
        f(1.5);      // exact double
        f('c');      // widens to int (most specific)
        f(2L);       // exact long
    }
}`)
	expectError(t, `
class A {
    int f(int x, long y) { return 1; }
    int f(long x, int y) { return 2; }
    void go() { f('a', 'b'); }
}`, "ambiguous")
	expectError(t, `
class A { void f(int x) {} void go() { f("s"); } }`, "no applicable overload")
}

func TestTypingErrors(t *testing.T) {
	expectError(t, `class A { void m() { int x = true; } }`, "cannot initialize")
	expectError(t, `class A { void m() { boolean b = 1; } }`, "cannot initialize")
	expectError(t, `class A { void m() { if (1) {} } }`, "condition must be boolean")
	expectError(t, `class A { void m() { while ("s") {} } }`, "condition must be boolean")
	expectError(t, `class A { int m() { return; } }`, "missing return value")
	expectError(t, `class A { void m() { return 1; } }`, "void method returns a value")
	expectError(t, `class A { void m() { break; } }`, "break outside a loop")
	expectError(t, `class A { void m() { continue; } }`, "continue outside a loop")
	expectError(t, `class A { void m() { throw new Object(); } }`, "cannot instantiate")
	expectError(t, `class B {} class A { void m() { throw new B(); } }`, "must be a Throwable")
	expectError(t, `class A { void m() { try {} catch (A e) {} } }`, "catch type must be a Throwable")
	expectError(t, `class A { void m() { int x = y; } }`, "undefined name")
	expectError(t, `class A { void m() { int x = 1; int x = 2; } }`, "redeclared")
	expectError(t, `class A { void m(int p, int p) {} }`, "redeclared")
	expectError(t, `class A { void m() { int x = "s".length() + true; } }`, "must be numeric")
	expectError(t, `class A { void m() { boolean b = 1 < true; } }`, "must be numeric")
	expectError(t, `class A { void m() { int[] a = new int[3]; double d = a[1.5]; } }`, "index must be int")
	expectError(t, `class A { void m() { int x = 3; int y = x.f; } }`, "has no fields")
	expectError(t, `class A { void m() { int x = 3; x.f(); } }`, "has no methods")
	expectError(t, `class A { int f; void m() { f(); } }`, "no applicable overload")
	expectError(t, `class A { static void m() { int x = this.hashCode(); } }`, "this used in a static context")
	expectError(t, `class A { int f; static void m() { int x = f; } }`, "static context")
	expectError(t, `class A { void f() {} static void m() { f(); } }`, "static context")
	expectError(t, `class B { static int s; } class A { void m() { B b = new B(); int x = b.s; } }`, "accessed through an instance")
	expectError(t, `class A { void m() { Object o = (Object) 1; } }`, "invalid cast")
	expectError(t, `class B {} class C {} class A { void m() { B b = new B(); C c = (C) b; } }`, "impossible cast")
	expectError(t, `class A { void m() { int x = 1 instanceof A ? 1 : 2; } }`, "reference operand")
	expectError(t, `class A { void m() { long l = 1L; int i = l; } }`, "cannot initialize")
	expectError(t, `class A { void m() { double d = 1.0; long l = d; } }`, "cannot initialize")
	expectError(t, `class A { A() { int x = 1; super(); } }`, "first statement")
}

func TestCtorRules(t *testing.T) {
	checkOK(t, `
class A { A(int x) {} A() {} }
class B extends A { B() { super(3); } }
class C extends A {}
`)
	expectError(t, `
class A { A(int x) {} }
class B extends A {}
`, "no no-argument constructor")
	p := checkOK(t, `class D {}`)
	d := p.Classes["D"]
	if len(d.Ctors) != 1 || !d.Ctors[0].Synthetic {
		t.Error("default constructor not synthesized")
	}
}

func TestWideningMatrix(t *testing.T) {
	p := checkOK(t, `class A {} class B extends A {}`)
	a := p.ClassType(p.Classes["A"])
	b := p.ClassType(p.Classes["B"])
	cases := []struct {
		from, to *sema.Type
		want     bool
	}{
		{p.Int, p.Long, true},
		{p.Int, p.Double, true},
		{p.Long, p.Double, true},
		{p.Char, p.Int, true},
		{p.Char, p.Double, true},
		{p.Long, p.Int, false},
		{p.Double, p.Long, false},
		{p.Int, p.Char, false},
		{p.Boolean, p.Int, false},
		{b, a, true},
		{a, b, false},
		{p.Null, a, true},
		{p.Null, p.Int, false},
		{p.ArrayOf(p.Int), p.Object, true},
		{p.ArrayOf(p.Int), p.ArrayOf(p.Long), false},
	}
	for _, c := range cases {
		if got := p.Widens(c.from, c.to); got != c.want {
			t.Errorf("Widens(%s, %s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if p.Promote(p.Int, p.Long) != p.Long || p.Promote(p.Char, p.Char) != p.Int ||
		p.Promote(p.Long, p.Double) != p.Double {
		t.Error("binary numeric promotion wrong")
	}
}

func TestArrayTypesCanonical(t *testing.T) {
	p := checkOK(t, `class A {}`)
	if p.ArrayOf(p.Int) != p.ArrayOf(p.Int) {
		t.Error("array types not canonicalized")
	}
	if p.ArrayOf(p.ArrayOf(p.Int)).Elem != p.ArrayOf(p.Int) {
		t.Error("nested array element wrong")
	}
	if p.ArrayOf(p.Int).String() != "int[]" {
		t.Errorf("spelling %q", p.ArrayOf(p.Int).String())
	}
}

func TestStringAndBuiltinResolution(t *testing.T) {
	checkOK(t, `
class A {
    void m() {
        String s = "x";
        int n = s.length();
        char c = s.charAt(0);
        String t = s.substring(0, 1);
        boolean e = s.equals("x");
        double d = Math.sqrt(2.0);
        int k = Math.abs(-3);
        double mx = Math.max(1.0, 2.0);
        System.out.println(s);
        System.out.println(n);
        System.out.println(d);
        System.out.println();
        System.out.print('c');
    }
}`)
	expectError(t, `class A { void m() { Math.frobnicate(1.0); } }`, "has no function")
	expectError(t, `class A { void m() { System.out.flush(); } }`, "has no method")
	expectError(t, `class A { void m() { Object o = System.out; } }`, "call receiver")
}

func TestShadowingRules(t *testing.T) {
	// Locals shadow fields; a local named Math suppresses the builtin.
	checkOK(t, `
class A {
    int x;
    void m() {
        int x = 1;
        x = x + 1;
        this.x = x;
    }
}`)
	expectError(t, `
class A { void m() { int Math = 3; Math.sqrt(4.0); } }`, "has no methods")
}

func TestMethodInfoRecorded(t *testing.T) {
	p := checkOK(t, `
class A {
    int add(int a, int b) { int c = a + b; return c; }
}`)
	var m *sema.MethodSym
	for _, cand := range p.Classes["A"].Methods {
		if cand.Name == "add" {
			m = cand
		}
	}
	info := p.MethodInfo[m]
	if info == nil || len(info.Params) != 2 || len(info.Locals) != 3 {
		t.Fatalf("method info: %+v", info)
	}
	if !info.Params[0].Param || info.Locals[2].Param {
		t.Error("param flags wrong")
	}
}
