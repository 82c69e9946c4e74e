package ssabuild_test

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/ssabuild"
)

// reachable marks the bodies a guest can call: the static initializers,
// the entry's body and, through the call graph, everything they can call.
func reachable(m *core.Module) map[*core.Func]bool {
	roots := slices.Clone(m.StaticInit)
	if m.Entry >= 0 {
		roots = append(roots, m.Methods[m.Entry].FuncIdx)
	}
	reach := map[*core.Func]bool{}
	for i, in := range m.CallGraph().Reach(roots...)[:len(m.Funcs)] {
		if in {
			reach[m.Funcs[i]] = true
		}
	}
	return reach
}

// TestReachableBodiesLead: in every corpus unit the bodies a guest can
// call precede every body it cannot, so a consumer that decodes on first
// call never decodes a body no call reaches on its way to the last one it
// needs. The producer orders by the unit it built; the optimizer only ever
// removes call edges (a devirtualized dispatch calls one of the bodies it
// could select, an inlined callee's calls were reachable through it), so
// at O1 and O2 the bodies still reachable lie inside the prefix that was
// reachable when the unit was built.
func TestReachableBodiesLead(t *testing.T) {
	for _, u := range corpus.Units() {
		for _, tier := range []struct {
			name string
			o    *opt.Options
		}{{"O0", nil}, {"O1", &opt.Options{}}, {"O2", &opt.Options{ModuleLevel: true}}} {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			prefix := len(reachable(mod))
			if tier.o != nil {
				if _, err := driver.OptimizeModuleOptions(context.Background(), mod, *tier.o); err != nil {
					t.Fatalf("%s %s: %v", u.Name, tier.name, err)
				}
			}
			reach := reachable(mod)
			for i, f := range mod.Funcs {
				if reach[f] && i >= prefix {
					t.Errorf("%s %s: body %d (%s) is reachable but follows the %d bodies reachable when the unit was built",
						u.Name, tier.name, i, mod.FuncName(f), prefix)
				}
				if tier.o == nil && !reach[f] && i < prefix {
					t.Errorf("%s %s: body %d (%s) is unreachable but leads a reachable one", u.Name, tier.name, i, mod.FuncName(f))
				}
			}
		}
	}
}

// TestEntryFollowsStaticInitializers: in every corpus unit the entry
// method leads the method table, so the body rule places its body right
// after the static initializers and a streaming consumer begins main
// after admitting them and it alone.
func TestEntryFollowsStaticInitializers(t *testing.T) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		inits := 0
		for _, si := range mod.StaticInit {
			if si >= 0 {
				inits++
			}
		}
		if mod.Entry != 0 || mod.Methods[0].FuncIdx != int32(inits) {
			t.Errorf("%s: entry method %d, method 0's body %d, after %d static initializers", u.Name, mod.Entry, mod.Methods[0].FuncIdx, inits)
		}
	}
}

// orderUnits is every corpus unit and benchmark guest (Except's classes
// extend an imported throwable), and a hierarchy whose classes append
// methods their guest reaches in another order than the table as built
// holds them, by name.
func orderUnits(t *testing.T) map[string]map[string]string {
	t.Helper()
	units := map[string]map[string]string{"Reorder": {"Reorder.tj": `
class A { int f() { return 1; } int g() { return 2; } int h() { return 3; } }
class B extends A { int p() { return 4; } int f() { return 5; } int q() { return 6; } }
class C extends B { int r() { return 7; } int s() { return 8; } int g() { return 9; } }
class Reorder {
    static void main() {
        A a = new C();
        B b = new C();
        C c = new C();
        System.out.println(c.s() + b.q() + a.h() + c.r());
    }
}`}}
	for _, u := range corpus.Units() {
		units[u.Name] = u.Files
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "guests", "*.tj"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("benchmark guests: %v, %v", paths, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		units[filepath.Base(path)] = map[string]string{filepath.Base(path): string(src)}
	}
	return units
}

// TestOrderedTablesAreDerived: Build orders the method table first and
// derives the tables once, after the order. What it leaves is what a
// derivation over the ordered table gives, entry for entry, in every unit
// of orderUnits.
func TestOrderedTablesAreDerived(t *testing.T) {
	units := orderUnits(t)
	for name, files := range units {
		prog, err := driver.Frontend(files)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod, err := ssabuild.Build(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		type tables struct {
			methods, vtable [][]int32
			vslot, funcIdx  []int32
		}
		snapshot := func() (s tables) {
			for _, cd := range mod.Classes {
				s.methods = append(s.methods, slices.Clone(cd.Methods))
				s.vtable = append(s.vtable, slices.Clone(cd.VTable))
			}
			for _, mr := range mod.Methods {
				s.vslot = append(s.vslot, mr.VSlot)
				s.funcIdx = append(s.funcIdx, mr.FuncIdx)
			}
			return s
		}
		built := snapshot()
		if _, err := mod.DeriveTables(nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if derived := snapshot(); !reflect.DeepEqual(built, derived) {
			t.Errorf("%s: the tables Build leaves are not the ordered table's derivation", name)
		}
	}
}

// TestCallGraphSelectsWhatDispatchSelects: the call graph reads the
// hierarchy, not the dispatch tables, and its rule — a dispatched method's
// node leads to the bodies of the virtual methods of its name and
// parameters that its owner or a subclass declares — selects what the
// derived tables do: the bodies cd.VTable[VSlot] names over the owner's
// subclasses. It holds for every unit of orderUnits at O0 and O2, and for
// a unit that dispatches a method with an overload, one whose signature a
// class outside the owner's subclasses also declares, and a host method a
// class under an imported throwable overrides.
func TestCallGraphSelectsWhatDispatchSelects(t *testing.T) {
	units := orderUnits(t)
	units["Select"] = map[string]string{"Select.tj": `
class Shape { int area() { return 0; } int area(int k) { return k; } }
class Square extends Shape { int area() { return 4; } int area(int k) { return 4 * k; } }
class Label { int area() { return 9; } }
class Oops extends Exception { String getMessage() { return "oops"; } }
class Select {
    static void main() {
        Shape s = new Square();
        Shape t = new Shape();
        Label l = new Label();
        Exception e = new Oops();
        System.out.println(s.area() + t.area(2) + l.area());
        System.out.println(e.getMessage());
    }
}`}
	for name, files := range units {
		for _, o2 := range []bool{false, true} {
			mod, err := driver.CompileTSASource(files)
			if err == nil && o2 {
				_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
			}
			if err != nil {
				t.Fatalf("%s O2=%v: %v", name, o2, err)
			}
			// The dispatched methods, in the order the graph gives them nodes.
			var dispatched []int32
			for _, f := range mod.Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Code {
						if in.Op == core.OpXDispatch && !slices.Contains(dispatched, in.Method) {
							dispatched = append(dispatched, in.Method)
						}
					}
				}
			}
			g := mod.CallGraph()
			if g.Nodes() != g.Bodies+len(dispatched) {
				t.Fatalf("%s O2=%v: %d nodes over %d bodies and %d dispatched methods", name, o2, g.Nodes(), g.Bodies, len(dispatched))
			}
			for k, mi := range dispatched {
				mr := &mod.Methods[mi]
				if mr.VSlot < 0 {
					t.Fatalf("%s O2=%v: dispatched method %d (%s) has no slot", name, o2, mi, mr.Name)
				}
				want := map[int32]bool{}
				for _, cd := range mod.Subclasses(mr.Owner) {
					if fi := mod.Methods[cd.VTable[mr.VSlot]].FuncIdx; fi >= 0 {
						want[fi] = true
					}
				}
				got := map[int32]bool{}
				for _, fi := range g.Succ(int32(g.Bodies + k)) {
					got[fi] = true
				}
				if !maps.Equal(got, want) {
					t.Errorf("%s O2=%v: dispatching %d (%s) reaches bodies %v in the call graph, %v through the tables",
						name, o2, mi, mr.Name, got, want)
				}
			}
		}
	}
}
