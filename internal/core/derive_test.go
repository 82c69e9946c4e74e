package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// derivedFixture is the signature fixture with its tables derived and its
// bodies built, ready for a table to be changed.
func derivedFixture(t *testing.T) *Module {
	t.Helper()
	fx := newSigFixture()
	fx.build(sigCase{name: "f", instr: func(fx *sigFixture, _ []ValueID, _ func(*Instr) ValueID) *Instr {
		return &Instr{Op: OpConst, Type: fx.m.Types.Int, Const: ConstVal{Kind: KInt}}
	}})
	if err := fx.m.Verify(VerifyOptions{}); err != nil {
		t.Fatalf("derived fixture rejected: %v", err)
	}
	return fx.m
}

// TestDerivedTables pins what the derivation computes of the fixture:
// A's layout (x at slot 0, s at static slot 0), its member lists in table
// order, and A's and B's dispatch tables, Object's three methods first.
func TestDerivedTables(t *testing.T) {
	m := derivedFixture(t)
	a, b := m.Classes[0], m.Classes[1]
	got := fmt.Sprint(m.Fields[0].Slot, m.Fields[1].Slot, a.NumSlots, a.NumStatics, b.NumSlots, b.NumStatics,
		a.Fields, a.Methods, a.VTable, b.Fields, b.Methods, b.VTable)
	if want := "0 0 1 1 1 0 [0 1] [0 1 2 3 7] [4 5 6 1] [] [] [4 5 6 1]"; got != want {
		t.Errorf("derived %s, want %s", got, want)
	}
	var vslots, builtins []int32
	for _, mr := range m.Methods {
		vslots, builtins = append(vslots, mr.VSlot), append(builtins, int32(mr.Builtin))
	}
	if got, want := fmt.Sprint(vslots, builtins), fmt.Sprint([]int32{-1, 3, -1, -1, 0, 1, 2, -1},
		[]int32{0, 0, 0, 0, int32(BObjHashCode), int32(BObjEquals), int32(BObjToString), 0}); got != want {
		t.Errorf("dispatch slots and host operations %s, want %s", got, want)
	}
}

// TestVerifyTablesHoldsTheDerivation: Verify installs what a consumer
// derives over whatever a module built by hand carries — its layouts,
// member lists, dispatch tables and host operations, and the body rule's
// places — so a producer that computed one otherwise cannot ship it.
func TestVerifyTablesHoldsTheDerivation(t *testing.T) {
	fixture := func() *Module { return derivedFixture(t) }
	for _, tc := range []struct {
		name string
		hack func(m *Module)
	}{
		{"field slot", func(m *Module) { m.Fields[0].Slot = 1 }},
		{"static slot", func(m *Module) { m.Fields[1].Slot = 2 }},
		{"instance slots", func(m *Module) { m.Classes[1].NumSlots = 2 }},
		{"static slots", func(m *Module) { m.Classes[0].NumStatics = 0 }},
		{"dispatch slot", func(m *Module) { m.Methods[1].VSlot = 0 }},
		{"slot of a static method", func(m *Module) { m.Methods[0].VSlot = 4 }},
		{"host operation", func(m *Module) { m.Methods[4].Builtin = BStrHashCode }},
		{"host operation of a unit method", func(m *Module) { m.Methods[0].Builtin = BStrLength }},
		{"field list", func(m *Module) { m.Classes[0].Fields = []int32{1, 0} }},
		{"method list", func(m *Module) { m.Classes[0].Methods = []int32{0, 1} }},
		{"dispatch table", func(m *Module) { m.Classes[1].VTable = []int32{4, 5, 6} }},
	} {
		t.Run(tc.name, func(t *testing.T) { wantInstalled(t, fixture, tc.hack) })
	}
}

// wantInstalled verifies the fixture changed by hack and holds its tables
// to the unchanged fixture's.
func wantInstalled(t *testing.T, fixture func() *Module, hack func(m *Module)) {
	t.Helper()
	m := fixture()
	hack(m)
	if err := m.Verify(VerifyOptions{}); err != nil {
		t.Fatalf("refused: %v", err)
	}
	if got, want := tables(m), tables(fixture()); got != want {
		t.Errorf("Verify left the tables\n%s\nwant\n%s", got, want)
	}
}

// wantVerdict is wantRejected when want is a refusal, and wantInstalled
// when it is "".
func wantVerdict(t *testing.T, fixture func() *Module, hack func(m *Module), want string) {
	t.Helper()
	if want == "" {
		wantInstalled(t, fixture, hack)
		return
	}
	m := fixture()
	hack(m)
	wantRejected(t, m, want)
}

// tables spells what admission installs in m's tables.
func tables(m *Module) string {
	s := fmt.Sprint(m.Fields, m.Methods, m.StaticInit, m.Entry)
	for _, cd := range m.Classes {
		s += fmt.Sprint(*cd)
	}
	return s
}

// TestDerivationRefuses: the tables a derivation cannot complete are
// refused, in process and as a consumer derives them: an override that
// changes the result type or overrides a static method, an imported
// method with no host operation of its signature, an inherited host
// method the method table does not list, and a hierarchy whose dispatch
// tables cost too much to derive.
func TestDerivationRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		hack func(m *Module)
		want string
	}{
		{"override with another result", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Classes[1].Type, Name: "vm",
				Params: []TypeID{m.Types.Int}, Result: m.Types.Boolean, FuncIdx: int32(len(m.Funcs))})
		}, "class B: method 8 (B.vm(int)) overrides an inherited method with a different result type"},
		{"override of a host method with another result", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Classes[0].Type, Name: "hashCode",
				Result: m.Types.Long, FuncIdx: int32(len(m.Funcs))})
		}, "class A: method 8 (A.hashCode()) overrides an inherited method with a different result type"},
		{"override of a static method", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Classes[1].Type, Name: "sm",
				Params: []TypeID{m.Types.Int}, Result: m.Types.Int, FuncIdx: int32(len(m.Funcs))})
		}, "class B: method 8 (B.sm(int)) overrides a static method"},
		{"override of a host static method", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Classes[0].Type, Name: "System.out.println",
				Result: m.Types.Void, FuncIdx: int32(len(m.Funcs))})
		}, "class A: method 8 (A.System.out.println()) overrides a static method"},
		{"imported method of no host signature", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Types.String, Name: "size", Result: m.Types.Int, FuncIdx: -1})
		}, "method 8 (String.size()): no body and no host operation of its signature"},
		{"host method called static", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Types.String, Name: "length", Result: m.Types.Int, Static: true, FuncIdx: -1})
		}, "method 8 (String.length()): no body and no host operation of its signature"},
		{"host method of another result", func(m *Module) {
			m.Methods = append(m.Methods, MethodRef{Owner: m.Types.String, Name: "length", Result: m.Types.Long, FuncIdx: -1})
		}, "method 8 (String.length()): no body and no host operation of its signature"},
		{"unit class without a definition", func(m *Module) {
			m.Classes, m.StaticInit = m.Classes[:1], m.StaticInit[:1]
		}, "class B has no definition"},
		{"inherited host method missing", func(m *Module) {
			m.Methods = m.Methods[:6] // Object.toString is the seventh entry
		}, "class A: inherits Object.toString, which the method table does not list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := derivedFixture(t)
			tc.hack(m)
			if _, err := m.DeriveTables(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v; want a refusal mentioning %q", err, tc.want)
			}
		})
	}

	// Two hierarchies over the work bound: a chain of 3 000 classes, each
	// adding a virtual method, whose tables would cost ~9 M steps to copy
	// and search; and a root of 2 000 virtual methods under a chain of
	// 3 000 classes that add none, whose copies would hold 6 M entries. The
	// second is refused before its tables grow past the bound.
	for _, tc := range []struct {
		name          string
		depth, leaves int
	}{{"a 3 000-class chain", 3000, 0}, {"2 000 methods inherited down a 3 000-class chain", 3000, 2000}} {
		m := chain(tc.depth, tc.leaves)
		if _, err := m.DeriveTables(nil); err == nil || !strings.Contains(err.Error(), "dispatch tables too large to derive") {
			t.Errorf("%s: %v; want the dispatch tables refused as too large", tc.name, err)
		}
		// What the derivation held when it refused: the member lists, the
		// host library's tables and at most the bound's worth of copies
		// and placed methods; and what it allocated for them: its lists
		// are carved once, at the length it keeps (dispatchRoom), where
		// growing them by append would allocate several times as much.
		defIdx := map[TypeID]int{}
		for k, cd := range m.Classes {
			defIdx[cd.Type] = k
		}
		mem := new(derivedMem)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := m.derive(mem, func(t TypeID) int {
			if k, ok := defIdx[t]; ok {
				return k
			}
			return -1
		}, func(string, ...any) {})
		runtime.ReadMemStats(&after)
		if limit := len(m.Methods) + len(hostMethods) + maxDispatchWork; len(d.lists) > limit {
			t.Errorf("%s: the derivation's lists grew to %d entries, past %d", tc.name, len(d.lists), limit)
		}
		got, kept := after.TotalAlloc-before.TotalAlloc, uint64(4*len(d.lists))
		if got > kept*3/2 {
			t.Errorf("%s: the derivation allocated %d B for %d entries (%d B)", tc.name, got, len(d.lists), kept)
		}
		t.Logf("%s: %d entries kept, %d B allocated", tc.name, len(d.lists), got)
	}
}

// chain is a module of depth classes, each the subclass of the one
// before, under a root class C0. With leaves 0 every class adds a virtual
// method; otherwise the root has leaves virtual methods and the others
// none.
func chain(depth, leaves int) *Module {
	tt := NewTypeTable()
	m := &Module{Types: tt, Entry: -1}
	for _, name := range []string{"hashCode", "equals", "toString"} {
		h := HostMethods()[hostMethodIndex(name)]
		m.Methods = append(m.Methods, MethodRef{Owner: h.Owner, Name: h.Name, Params: h.Params, Result: h.Result})
	}
	method := func(owner TypeID, name string) {
		m.Methods = append(m.Methods, MethodRef{Owner: owner, Name: name, Result: tt.Void})
	}
	super := tt.Object
	for i := range depth {
		c := tt.AddClass(fmt.Sprintf("C%d", i), super)
		m.Classes = append(m.Classes, &ClassDef{Type: c, Super: super})
		m.StaticInit = append(m.StaticInit, -1)
		switch {
		case leaves == 0:
			method(c, fmt.Sprintf("m%d", i))
		case i == 0:
			for j := range leaves {
				method(c, fmt.Sprintf("m%d", j))
			}
		}
		super = c
	}
	m.PlaceBodies()
	return m
}

// TestOverrideChainDerives: a chain of 3 000 classes that each override
// one method has dispatch tables of four entries, and deriving them costs
// work in proportion to the chain: the search for a static the override
// would hide looks only through the classes that declare one. A static of
// the method's signature halfway down the chain is still found, from the
// class below it and from the last.
func TestOverrideChainDerives(t *testing.T) {
	const depth = 3000
	overrides := func() *Module {
		m := chain(depth, 0)
		for i := range m.Methods[3:] {
			m.Methods[3+i].Name = "m"
		}
		// The root declares a static of another signature, which every
		// override's search reads.
		m.Methods = append(m.Methods, MethodRef{Owner: m.Classes[0].Type, Name: "s", Result: m.Types.Void, Static: true})
		m.PlaceBodies()
		return m
	}
	m := overrides()
	if _, err := m.DeriveTables(nil); err != nil {
		t.Fatalf("a %d-class chain of overrides: %v", depth, err)
	}
	if n := len(m.Classes[depth-1].VTable); n != 4 {
		t.Errorf("the last class's dispatch table has %d entries, want 4", n)
	}

	m = overrides()
	half := m.Classes[depth/2].Type
	m.Methods = append(m.Methods, MethodRef{Owner: half, Name: "m", Result: m.Types.Void, Static: true})
	m.PlaceBodies()
	_, err := m.DeriveTables(nil)
	for _, k := range []int{depth/2 + 1, depth - 1} {
		want := fmt.Sprintf("class C%d: method %d (C%d.m()) overrides a static method", k, 3+k, k)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v; want a refusal mentioning %q", err, want)
		}
	}
}

// hostMethodIndex is the index in HostMethods of Object's method name.
func hostMethodIndex(name string) int {
	for i, h := range HostMethods() {
		if h.Owner == NewTypeTable().Object && h.Name == name {
			return i
		}
	}
	panic("no Object." + name)
}

// TestHostLibrary: the host library's dispatch slots are the ones the
// rule gives its classes — Object's three methods, String's overrides of
// hashCode and equals in their slots and its own methods after them,
// Throwable's getMessage after Object's — and each operation is named
// once.
func TestHostLibrary(t *testing.T) {
	seen := map[BuiltinID]bool{}
	m := &Module{Types: NewTypeTable(), Entry: -1}
	for _, h := range HostMethods() {
		if seen[h.Builtin] || h.Builtin == BNone {
			t.Errorf("host operation %d named twice or unnamed", h.Builtin)
		}
		seen[h.Builtin] = true
		if HostMethodOf(h.Builtin).Name != h.Name {
			t.Errorf("HostMethodOf(%d) is not %s", h.Builtin, h.Name)
		}
		m.Methods = append(m.Methods, MethodRef{Owner: h.Owner, Name: h.Name, Params: h.Params, Result: h.Result,
			Static: h.Static, FuncIdx: -1})
	}
	if _, err := m.DeriveTables(nil); err != nil {
		t.Fatalf("the host library's methods refused: %v", err)
	}
	var got []string
	for _, mr := range m.Methods {
		if !mr.Static {
			got = append(got, fmt.Sprintf("%s.%s@%d", ImplicitType(mr.Owner).Name, mr.Name, mr.VSlot))
		}
	}
	want := "Object.hashCode@0 Object.equals@1 Object.toString@2 String.length@3 String.charAt@4 " +
		"String.substring@5 String.equals@1 String.compareTo@6 String.indexOf@7 String.hashCode@0 Throwable.getMessage@3"
	if strings.Join(got, " ") != want {
		t.Errorf("host dispatch slots:\n%s\nwant\n%s", strings.Join(got, " "), want)
	}
}
