package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestBodyRule pins where the body rule puts linkFixture's bodies: class
// A's static initializer first, then the unit's methods' bodies in
// method-table order, the imported methods none, and no entry method
// while no unit method is a static main.
func TestBodyRule(t *testing.T) {
	m := linkFixture()
	var idx []int32
	for _, mr := range m.Methods {
		idx = append(idx, mr.FuncIdx)
	}
	got := fmt.Sprint(m.StaticInit, idx, m.Entry)
	if want := "[0 -1] [1 2 -1 -1 -1] -1"; got != want {
		t.Errorf("static initializers, body indices and entry %s, want %s", got, want)
	}
	m.Methods[1].Name = "main"
	m.PlaceBodies()
	if m.Entry != 1 {
		t.Errorf("entry method %d, want 1: the first static main() in table order", m.Entry)
	}
}

// TestVerifyTablesHoldsTheBodyRule: Verify installs the body rule's
// places over whatever a module built by hand carries — body indices,
// the entry method — and refuses a module whose class list is out of type
// order, whose bodies do not stand where the rule places them
// (Admission.Link), or which holds fewer functions than the rule places.
func TestVerifyTablesHoldsTheBodyRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		hack func(m *Module)
		want string // "" for a module Verify admits with the rule installed
	}{
		{"bodies out of order", func(m *Module) {
			m.Funcs[1], m.Funcs[2] = m.Funcs[2], m.Funcs[1]
			m.Methods[0].FuncIdx, m.Methods[1].FuncIdx = 2, 1
		}, "function 1 (A.m0): body of method 0 (m0) names method 1"},
		{"a static initializer after a method body", func(m *Module) {
			m.Funcs[0], m.Funcs[1] = m.Funcs[1], m.Funcs[0]
			m.StaticInit[0], m.Methods[0].FuncIdx = 1, 0
		}, "function 0 (A.<clinit>): static initializer claims A.m0"},
		{"an imported method with a body index", func(m *Module) { m.Methods[2].FuncIdx = 3 }, ""},
		{"an entry method the rule does not give", func(m *Module) { m.Entry = 0 }, ""},
		{"class list out of type order", func(m *Module) {
			m.Classes[0], m.Classes[1] = m.Classes[1], m.Classes[0]
		}, "class A is class definition 1, the type table puts it at 0"},
		{"a body short", func(m *Module) { m.Funcs = m.Funcs[:2] },
			"2 functions for the 3 bodies the tables place"},
		{"a unit method without a body", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Classes[0].Type, Name: "g", Result: m.Types.Void, Static: true, FuncIdx: -1})
		}, "function 3 (A.g): body of method 5 (g) names method 0"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantVerdict(t, linkFixture, tc.hack, tc.want) })
	}
}

// TestHostAlphabetPinned: the host library's methods, position by
// position, and each imported class's alphabet of methods. A unit names
// an imported method by its place here, so the order is wire meaning: an
// entry moved or inserted changes what every unit's symbols name, and
// needs a new wire revision.
func TestHostAlphabetPinned(t *testing.T) {
	tt := NewTypeTable()
	var b strings.Builder
	for i, h := range HostMethods() {
		mr := MethodRef{Owner: h.Owner, Name: h.Name, Params: h.Params, Result: h.Result}
		fmt.Fprintf(&b, "%d %s %s static %v\n", i, mr.Sig(tt), tt.Describe(h.Result), h.Static)
	}
	for t := TypeID(1); int(t) < tt.ImplicitLen; t++ {
		if n := ImportedMethods(t); n > 0 {
			fmt.Fprintf(&b, "%s:", tt.Describe(t))
			for s := range n {
				mr := ImportedMethod(t, s)
				fmt.Fprintf(&b, " %s", strings.TrimPrefix(mr.Sig(tt), tt.Describe(t)+"."))
			}
			b.WriteString("\n")
		}
	}
	const want = `0 Object.hashCode() int static false
1 Object.equals(Object) boolean static false
2 Object.toString() String static false
3 String.length() int static false
4 String.charAt(int) char static false
5 String.substring(int,int) String static false
6 String.equals(Object) boolean static false
7 String.compareTo(String) int static false
8 String.indexOf(String) int static false
9 String.hashCode() int static false
10 Throwable.getMessage() String static false
11 Object.System.out.println(String) void static true
12 Object.System.out.println(int) void static true
13 Object.System.out.println(long) void static true
14 Object.System.out.println(double) void static true
15 Object.System.out.println(boolean) void static true
16 Object.System.out.println(char) void static true
17 Object.System.out.println() void static true
18 Object.System.out.print(String) void static true
19 Object.System.out.print(int) void static true
20 Object.System.out.print(long) void static true
21 Object.System.out.print(double) void static true
22 Object.System.out.print(boolean) void static true
23 Object.System.out.print(char) void static true
Object: hashCode() equals(Object) toString() System.out.println(String) System.out.println(int) System.out.println(long) System.out.println(double) System.out.println(boolean) System.out.println(char) System.out.println() System.out.print(String) System.out.print(int) System.out.print(long) System.out.print(double) System.out.print(boolean) System.out.print(char) Object()
String: length() charAt(int) substring(int,int) equals(Object) compareTo(String) indexOf(String) hashCode() String()
Throwable: getMessage() Throwable() Throwable(String)
Exception: Exception() Exception(String)
NullPointerException: NullPointerException() NullPointerException(String)
ArithmeticException: ArithmeticException() ArithmeticException(String)
IndexOutOfBoundsException: IndexOutOfBoundsException() IndexOutOfBoundsException(String)
ClassCastException: ClassCastException() ClassCastException(String)
NegativeArraySizeException: NegativeArraySizeException() NegativeArraySizeException(String)
`
	if got := b.String(); got != want {
		t.Errorf("the host alphabet is\n%s\nwant\n%s", got, want)
	}
	// Each symbol names the entry it is the symbol of.
	for t2 := TypeID(1); int(t2) < tt.ImplicitLen; t2++ {
		for s := range ImportedMethods(t2) {
			if mr := ImportedMethod(t2, s); ImportedSymbol(&mr) != s {
				t.Errorf("%s symbol %d names %s, whose symbol is %d", tt.Describe(t2), s, mr.Sig(tt), ImportedSymbol(&mr))
			}
		}
	}
}
