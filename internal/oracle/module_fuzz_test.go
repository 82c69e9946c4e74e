package oracle_test

import (
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// moduleSeedSources aim at the interprocedural pipeline's hard cases:
// branching hierarchies where only class-hierarchy plus rapid-type
// analysis can prove a dispatch monomorphic (and where it must not),
// dispatch-heavy loops through a common root, recursive callees the
// inliner must refuse, small throwing callees whose exception edges get
// stitched into the caller's handlers, a diamond that re-checks one
// access on both arms and again after the join, and a handler phi fed by
// a site that cannot throw, whose edge the wire carries all the same.
var moduleSeedSources = map[string]string{
	"branching_hierarchy": `
class Shape { int area() { return 0; } int tag() { return 1; } }
class Square extends Shape {
    int side;
    Square(int s) { side = s; }
    int area() { return side * side; }
}
class Circle extends Shape {
    int r;
    Circle(int r0) { r = r0; }
    int area() { return 3 * r * r; }
}
class Main {
    static void main() {
        Shape a = new Square(4);
        Shape b = new Circle(2);
        System.out.println(a.area() + b.area());
        System.out.println(a.tag() + b.tag());
    }
}`,
	"dispatch_heavy": `
class Cell { int v; int get() { return v; } void put(int x) { v = x; } }
class Main {
    static void main() {
        Cell c = new Cell();
        int total = 0;
        int i = 0;
        while (i < 50) {
            c.put(c.get() + i);
            total = total + c.get();
            i = i + 1;
        }
        System.out.println(total);
    }
}`,
	"uninstantiated_root": `
class Base { int f() { return 0; } }
class Only extends Base { int f() { return 9; } }
class Main {
    static void main() {
        Base b = new Only();
        int s = 0;
        int i = 0;
        while (i < 6) { s = s + b.f(); i = i + 1; }
        System.out.println(s);
    }
}`,
	"handler_phi": `
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
}`,
	"recursive_callee": `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static int bounce(int n) { return drop(n - 1); }
    static int drop(int n) { if (n < 1) { return 0; } return bounce(n); }
    static void main() {
        System.out.println(fib(12));
        System.out.println(bounce(5));
    }
}`,
	"throwing_inlinee": `
class Main {
    static int pick(int[] a, int i) { return a[i]; }
    static int div(int a, int b) { return a / b; }
    static void main() {
        int[] a = new int[4];
        a[2] = 12;
        int r = 0;
        try { r = pick(a, 2) + pick(a, 9); } catch (IndexOutOfBoundsException e) { r = -1; }
        System.out.println(r);
        try { r = div(100, 0); } catch (ArithmeticException e) { r = -2; }
        System.out.println(r);
        System.out.println(pick(a, 2) + div(84, 2));
    }
}`,
	"witness_diamond": `
class Main {
    static int f(int[] a, boolean p) {
        int x = 0;
        if (p) { x = a[2]; } else { x = a[2] + 1; }
        return x + a[2];
    }
    static void main() {
        int[] a = new int[5];
        a[2] = 40;
        System.out.println(f(a, true) + f(a, false));
        System.out.println(f(null, true));
    }
}`,
}

// moduleSeeds is FuzzModulePasses' generated corpus. The module-level
// tier itself is what the fuzz target applies, so its output is not a
// seed; the seeds' "_opt" halves are the intraprocedural pipeline's.
var moduleSeeds = seedSet{moduleSeedSources, []string{"m0", "m1"}}

// FuzzModulePasses fuzzes the interprocedural-optimizer oracle: every
// byte string that passes wire admission must survive the full
// module-level pipeline with the consumer verifier accepting each
// intermediate state, stay in canonical wire form, pass three-engine
// parity before and after, and — kills aside — print the same bytes,
// fail the same way, and leave the same reachable heap as the
// untransformed module. Run by CI as a fuzz-smoke job and, on its
// generated seeds, on every plain `go test`.
func FuzzModulePasses(f *testing.F) {
	fuzzseed.Add(f, moduleSeeds.seeds(f))
	f.Fuzz(fuzzseed.Once(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.ModuleDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	}))
}

// TestModuleDifferentialSeeds replays the hand-written seeds through the
// interprocedural oracle by program, so a failing soundness claim is
// reported by the program it failed on.
func TestModuleDifferentialSeeds(t *testing.T) {
	moduleSeeds.replay(t, oracle.ModuleDifferential)
}

// TestModuleParityCorpusSweep holds the interprocedural oracle over the
// whole paper corpus: every unit at every optimizer tier — opt-off,
// intraprocedural, module-level — must pass three-engine parity, and
// the module-level form must match the opt-off baseline observable for
// observable.
func TestModuleParityCorpusSweep(t *testing.T) {
	budgets := oracle.Budgets{MaxSteps: 1 << 22, MaxAlloc: 1 << 24}
	for _, u := range corpus.Units() {
		t.Run(u.Name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatal(err)
			}
			data := wire.EncodeModule(mod)
			// Tier 0 parity, tier 2 per-pass verification + parity,
			// and the tier-0-vs-tier-2 comparison in one oracle call.
			if err := oracle.ModuleDifferential(data, budgets); err != nil {
				t.Fatal(err)
			}
			// Tier 1 (the paper's measured intraprocedural pipeline)
			// through the engine-parity oracle on its own wire bytes.
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.PreparedDifferential(wire.EncodeModule(mod), budgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}
