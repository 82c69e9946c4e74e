package opt_test

import (
	"slices"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/oracle"
)

// moduleOptimized compiles src and runs the interprocedural pipeline
// with the consumer verifier re-checked after every pass.
func moduleOptimized(t *testing.T, src string) (*core.Module, opt.Stats) {
	t.Helper()
	mod := compiled(t, src)
	st, err := opt.RunPasses(mod, opt.Options{ModuleLevel: true}, opt.ModulePipeline(),
		func(pass string) error {
			if err := mod.Verify(core.VerifyOptions{}); err != nil {
				t.Fatalf("verifier rejects module after pass %s: %v", pass, err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return mod, st
}

// runBoth checks that the module-optimized form of src prints the same
// output and fails the same way as the unoptimized form, then returns
// the optimized module and its stats.
func runBoth(t *testing.T, src string) (*core.Module, opt.Stats) {
	t.Helper()
	errStr := func(e error) string {
		if e == nil {
			return ""
		}
		return e.Error()
	}
	base := compiled(t, src)
	want, werr := driver.RunModule(base, 1<<20)
	mod, st := moduleOptimized(t, src)
	got, gerr := driver.RunModule(mod, 1<<20)
	if got != want {
		t.Errorf("output diverged under module optimization\nwant %q\ngot  %q", want, got)
	}
	if errStr(werr) != errStr(gerr) {
		t.Errorf("error diverged under module optimization: %q vs %q", errStr(werr), errStr(gerr))
	}
	return mod, st
}

// TestDevirtualization pins the CHA/RTA devirtualizer case by case:
// which dispatch shapes become direct calls, and which are deliberately
// left virtual.
func TestDevirtualization(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// wantDevirt is the minimum number of rewritten sites; -1
		// demands exactly zero (the site must stay virtual).
		wantDevirt int
	}{
		{
			// One class, one implementation: CHA alone proves the
			// site monomorphic.
			name: "monomorphic-single-class",
			src: `
class A { int m() { return 7; } }
class Main { static void main() {
    A a = new A();
    System.out.println(a.m());
} }`,
			wantDevirt: 1,
		},
		{
			// The subclass overrides nothing, so every candidate
			// receiver shares the root's implementation.
			name: "monomorphic-inherited-impl",
			src: `
class A { int m() { return 11; } }
class B extends A { int other() { return 1; } }
class Main { static void main() {
    A a = new B();
    System.out.println(a.m() + a.m());
} }`,
			wantDevirt: 1,
		},
		{
			// Dispatch through a subclass-typed receiver whose class
			// overrides nothing: the builder anchors the site at the
			// declaring superclass, where it is monomorphic.
			name: "through-subclass-no-override",
			src: `
class A { int m() { return 3; } }
class B extends A { }
class Main { static void main() {
    B b = new B();
    System.out.println(b.m());
} }`,
			wantDevirt: 1,
		},
		{
			// Both implementations are instantiated: genuinely
			// polymorphic, must stay an xdispatch.
			name: "polymorphic",
			src: `
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class Main { static void main() {
    A x = new A();
    A y = new B();
    System.out.println(x.m() + y.m());
} }`,
			wantDevirt: -1,
		},
		{
			// CHA sees two implementations, but the overriding
			// subclass is never instantiated — RTA narrows the
			// candidate set to the root and the site devirtualizes.
			name: "rta-narrowed",
			src: `
class A { int m() { return 21; } }
class B extends A { int m() { return 99; } }
class Main { static void main() {
    A a = new A();
    System.out.println(a.m() * 2);
} }`,
			wantDevirt: 1,
		},
		{
			// Abstract-root shape: the root is never instantiated and
			// the unique live implementation lives on the subclass.
			// The direct call would need the receiver on the
			// subclass's safe-ref plane, which SafeTSA cannot reach
			// without a dynamic check — the site must stay virtual.
			name: "uninstantiated-root-subclass-target",
			src: `
class A { int m() { return 0; } }
class B extends A { int m() { return 5; } }
class Main { static void main() {
    A a = new B();
    System.out.println(a.m());
} }`,
			wantDevirt: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, st := runBoth(t, tc.src)
			if tc.wantDevirt < 0 {
				if st.Devirtualized != 0 {
					t.Errorf("devirtualized %d sites, want 0", st.Devirtualized)
				}
				if countOp(mod, core.OpXDispatch) == 0 {
					t.Errorf("no xdispatch left; the virtual site should have survived")
				}
			} else {
				if st.Devirtualized < tc.wantDevirt {
					t.Errorf("devirtualized %d sites, want >= %d", st.Devirtualized, tc.wantDevirt)
				}
				if n := countOp(mod, core.OpXDispatch); n != 0 {
					t.Errorf("%d xdispatch sites left, want 0", n)
				}
			}
		})
	}
}

// TestHierarchyQueries pins the core whole-module queries the
// devirtualizer and inliner are built on.
func TestHierarchyQueries(t *testing.T) {
	src := `
class A {
    int m() { return 1; }
    int walk(A x, int n) { if (n < 1) { return 0; } return x.walk(x, n - 1); }
}
class B extends A { int m() { return 2; } }
class C extends A { int extra() { return 3; } }
class Main {
    static int spin(A a) { return a.m(); }
    static int loop(int n) { if (n < 1) { return 0; } return loop(n - 1) + 1; }
    static void main() {
        System.out.println(spin(new B()) + loop(2));
    }
}`
	mod := compiled(t, src)
	aID := mod.Types.Class("A")
	if aID == core.NoType {
		t.Fatal("class A not found")
	}
	if n := len(mod.Subclasses(aID)); n != 3 {
		t.Errorf("Subclasses(A) = %d classes, want 3 (A, B, C)", n)
	}
	inst := mod.InstantiatedClasses()
	if !inst[mod.Types.Class("B")] || inst[mod.Types.Class("C")] || inst[aID] {
		t.Errorf("InstantiatedClasses wrong: %v", inst)
	}
	// Find the A.m dispatch entry. CHA alone (nil instantiated set)
	// sees two implementations; RTA narrows to B's.
	var am int32 = -1
	for i := range mod.Methods {
		if mod.Methods[i].Owner == aID && mod.Methods[i].Name == "m" {
			am = int32(i)
		}
	}
	if am < 0 {
		t.Fatal("A.m not in method table")
	}
	if tgt := mod.MonomorphicTarget(am, nil); tgt != -1 {
		t.Errorf("CHA-only target = %d, want -1 (B overrides)", tgt)
	}
	tgt := mod.MonomorphicTarget(am, inst)
	if tgt < 0 || mod.Methods[tgt].Owner != mod.Types.Class("B") {
		t.Errorf("RTA target not B's implementation (got %d)", tgt)
	}
	// Out-of-range and non-virtual entries resolve to nothing.
	if mod.MonomorphicTarget(-1, nil) != -1 || mod.MonomorphicTarget(int32(len(mod.Methods)), nil) != -1 {
		t.Error("out-of-range method index resolved")
	}
	for i := range mod.Methods {
		if mod.Methods[i].Static && mod.MonomorphicTarget(int32(i), nil) != -1 {
			t.Errorf("static method %s resolved as virtual", mod.Methods[i].Name)
		}
		if mod.Types.MustGet(mod.Methods[i].Owner).Imported &&
			mod.MonomorphicTarget(int32(i), nil) != -1 {
			t.Errorf("imported-owner method %s devirtualizable", mod.Methods[i].Name)
		}
	}
	// loop calls itself; walk reaches itself through its dispatched
	// method's node; spin dispatches m, which calls nothing.
	var recNames []string
	for f := range mod.RecursiveFuncs() {
		recNames = append(recNames, mod.Methods[f.Claim].Name)
	}
	slices.Sort(recNames)
	if !slices.Equal(recNames, []string{"loop", "walk"}) {
		t.Errorf("RecursiveFuncs = %v, want exactly [loop walk]", recNames)
	}
}

// TestMisdevirtualizationRejected pins the metamorphic safety net: a
// buggy devirtualizer that installs a subclass-owned target without
// repairing the receiver plane produces a module the consumer verifier
// rejects, and RunPassesVerified surfaces that rejection.
func TestMisdevirtualizationRejected(t *testing.T) {
	src := `
class A { int m() { return 0; } }
class B extends A { int m() { return 5; } }
class Main { static void main() {
    A a = new B();
    System.out.println(a.m());
} }`
	mod := compiled(t, src)
	evil := opt.Pass{Name: "evil-devirt", Run: func(m *core.Module, f *core.Func, o opt.Options, st *opt.Stats) {
		inst := m.InstantiatedClasses()
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op != core.OpXDispatch {
					continue
				}
				// RTA says B.m is the only live target — but the
				// receiver sits on A's safe-ref plane, and the
				// "optimizer" forgets to care.
				if tgt := m.MonomorphicTarget(in.Method, inst); tgt >= 0 {
					in.Op = core.OpXCall
					in.Method = tgt
				}
			}
		}
	}}
	_, err := oracle.RunPassesVerified(mod, []opt.Pass{evil})
	if err == nil {
		t.Fatal("verifier accepted a mis-devirtualized module")
	}
	if !strings.Contains(err.Error(), "evil-devirt") {
		t.Errorf("error does not name the offending pass: %v", err)
	}
}

// TestInlining pins the inliner: small straight-line callees disappear
// into their callers, recursive ones never do.
func TestInlining(t *testing.T) {
	t.Run("small-callee", func(t *testing.T) {
		src := `
class Main {
    static int add(int a, int b) { return a + b; }
    static int twice(int x) { return add(x, x); }
    static void main() {
        System.out.println(twice(add(3, 4)));
    }
}`
		mod, st := runBoth(t, src)
		if st.Inlined == 0 {
			t.Error("no call sites inlined")
		}
		// Only the builtin println calls should remain: every
		// unit-local call chain collapses within the round budget.
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Code {
					if in.Op == core.OpXCall && mod.FuncOf(in.Method) != nil {
						t.Errorf("unit-local call survived inlining: %s",
							mod.Methods[in.Method].Sig(mod.Types))
					}
				}
			}
		}
	})
	t.Run("recursive-not-inlined", func(t *testing.T) {
		// Mutually recursive single-block bodies: each qualifies on
		// every size test, so only the recursion analysis stops the
		// expansion. Never executed — main takes the other branch.
		src := `
class Main {
    static int ping(int n) { return pong(n - 1); }
    static int pong(int n) { return ping(n - 1); }
    static void main() {
        int x = 3;
        if (x > 10) { System.out.println(ping(x)); }
        System.out.println(x);
    }
}`
		mod, st := moduleOptimized(t, src)
		_ = st
		calls := 0
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Code {
					if in.Op == core.OpXCall && mod.FuncOf(in.Method) != nil {
						calls++
					}
				}
			}
		}
		if calls == 0 {
			t.Error("recursive calls disappeared; the inliner must refuse recursion")
		}
	})
	t.Run("throwing-inlinee-in-try", func(t *testing.T) {
		// The inlined body can throw; its exception edges must be
		// stitched to the caller's handler so the catch still fires.
		src := `
class Main {
    static int get(int[] a, int i) { return a[i]; }
    static void main() {
        int[] a = new int[3];
        a[1] = 8;
        int r = 0;
        try { r = get(a, 1) + get(a, 7); } catch (IndexOutOfBoundsException e) { r = -1; }
        System.out.println(r);
        try { r = get(null, 0); } catch (NullPointerException e) { r = -2; }
        System.out.println(r);
        System.out.println(get(a, 1));
    }
}`
		_, st := runBoth(t, src)
		if st.Inlined == 0 {
			t.Error("throwing callee not inlined")
		}
	})
}

// TestModuleOptDecodesToItself: an O2 module whose try regions hold
// provably safe sites, and one whose handler phi is fed by them, decodes
// on both wire versions to the producer's own structure — the exception
// edges the producer keeps are exactly the ones the CST implies.
func TestModuleOptDecodesToItself(t *testing.T) {
	for name, src := range map[string]string{
		// new int[5] indexed at constants in range: accesses that
		// cannot throw, inside a try.
		"const-bounds": `
class Main {
    static void main() {
        int[] a = new int[5];
        a[2] = 7;
        int r = 0;
        try { r = a[2] + a[3]; } catch (IndexOutOfBoundsException e) { r = -1; }
        System.out.println(r);
    }
}`,
		"const-divisor": `
class Main {
    static void main() {
        int x = 84;
        int r = 0;
        try { r = x / 2; } catch (ArithmeticException e) { r = -1; }
        System.out.println(r);
    }
}`,
		// A division by a constant feeds the handler phi of x.
		"handler-phi": handlerPhiSource,
	} {
		t.Run(name, func(t *testing.T) {
			mod, _ := runBoth(t, src)
			if err := oracle.CheckCanonicalWire(mod); err != nil {
				t.Error(err)
			}
			if err := oracle.CheckCanonicalWireV2(mod, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// handlerPhiSource is a try whose first site, a division by a non-zero
// constant, gives the handler phi of x its first operand.
const handlerPhiSource = `
class P {
    static int f(int a, int[] arr, int i) {
        int x = 1;
        try { x = a / 2; x = x + arr[i]; } catch (Throwable e) { return x + 100; }
        return x;
    }
    static void main() {
        int[] arr = new int[3];
        System.out.println(f(7, arr, 1));
        System.out.println(f(7, arr, 5));
    }
}`

// TestModulePipelineCombinesTiers checks the pipeline end to end on a
// dispatch-heavy hierarchy: devirtualization feeds the inliner, and the
// merged bodies expose redundant checks to CSE, all while the
// consumer verifier stays green after every pass.
func TestModulePipelineCombinesTiers(t *testing.T) {
	src := `
class Counter {
    int n;
    int bump() { n = n + 1; return n; }
    int read() { return n; }
}
class Main {
    static void main() {
        Counter c = new Counter();
        int total = 0;
        int i = 0;
        while (i < 5) { total = total + c.bump(); i = i + 1; }
        System.out.println(total);
        System.out.println(c.read());
    }
}`
	mod, st := runBoth(t, src)
	if st.Devirtualized == 0 {
		t.Error("no dispatch site devirtualized")
	}
	if st.Inlined == 0 {
		t.Error("no devirtualized call inlined")
	}
	if n := countOp(mod, core.OpXDispatch); n != 0 {
		t.Errorf("%d xdispatch sites left in a monomorphic module", n)
	}
}
