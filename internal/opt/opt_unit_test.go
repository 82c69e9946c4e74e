package opt_test

import (
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
)

func compiled(t *testing.T, src string) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func countOp(m *core.Module, op core.Op) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			b.Instrs(func(in *core.Instr) {
				if in.Op == op {
					n++
				}
			})
		}
	}
	return n
}

const fieldStoreSrc = `
class P { int x; int y; }
class Main {
    static int f(P p, int[] a) {
        int r = p.x + p.x;     // second load merges
        p.y = 1;               // store: kills p.x loads only under field analysis
        r += p.x;
        r += a[0];
        p.y = 2;               // a[0] reload: never killed by a field store
        r += a[0];
        return r;
    }
    static void main() {
        P p = new P();
        p.x = 21;
        int[] a = new int[1];
        a[0] = 100;
        System.out.println(f(p, a));
    }
}`

// TestMemVariableKillsLoads pins the conservative Mem semantics of
// section 8: a store produces a new Mem, so loads across it reload.
func TestMemVariableKillsLoads(t *testing.T) {
	mod := compiled(t, fieldStoreSrc)
	before := countOp(mod, core.OpGetField)
	opt.Optimize(mod)
	after := countOp(mod, core.OpGetField)
	// f has 3 p.x loads: the first pair merges; the store to p.y kills
	// the rest under single-Mem. 3 -> 2.
	if before <= after {
		t.Fatalf("getfield not reduced: %d -> %d", before, after)
	}
	if after < 2 {
		t.Fatalf("conservative Mem merged a load across a store: %d getfields left", after)
	}
}

// TestFieldSensitiveMem checks the paper's future-work extension: with
// the Mem variable partitioned by field, the store to p.y no longer
// kills p.x, and array loads survive field stores.
func TestFieldSensitiveMem(t *testing.T) {
	conservative := compiled(t, fieldStoreSrc)
	opt.Optimize(conservative)
	partitioned := compiled(t, fieldStoreSrc)
	opt.OptimizeWithOptions(partitioned, opt.Options{FieldSensitiveMem: true})

	cLoads := countOp(conservative, core.OpGetField) + countOp(conservative, core.OpGetElt)
	pLoads := countOp(partitioned, core.OpGetField) + countOp(partitioned, core.OpGetElt)
	if pLoads >= cLoads {
		t.Fatalf("field analysis found nothing: %d vs %d loads", pLoads, cLoads)
	}

	// Semantics must be identical.
	want, err := driver.RunModule(conservative, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.RunModule(partitioned, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("field-sensitive CSE changed behaviour: %q vs %q", got, want)
	}
}

// TestFieldSensitiveStillKillsSameField: a store to the loaded field must
// still invalidate it.
func TestFieldSensitiveStillKillsSameField(t *testing.T) {
	mod := compiled(t, `
class P { int x; }
class Main {
    static void main() {
        P p = new P();
        p.x = 1;
        int a = p.x;
        p.x = 2;
        int b = p.x;          // must NOT merge with a
        System.out.println(a + " " + b);
    }
}`)
	opt.OptimizeWithOptions(mod, opt.Options{FieldSensitiveMem: true})
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1 2\n" {
		t.Fatalf("store-to-load ordering broken: %q", out)
	}
}

// TestCallsKillAllPartitions: a method call conservatively invalidates
// every partition, even under field analysis.
func TestCallsKillAllPartitions(t *testing.T) {
	mod := compiled(t, `
class P { int x; }
class Main {
    static P shared;
    static void mutate() { shared.x = 99; }
    static void main() {
        shared = new P();
        shared.x = 1;
        P p = shared;
        int a = p.x;
        mutate();
        int b = p.x;          // must reload after the call
        System.out.println(a + " " + b);
    }
}`)
	opt.OptimizeWithOptions(mod, opt.Options{FieldSensitiveMem: true})
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1 99\n" {
		t.Fatalf("call did not kill memory: %q", out)
	}
}

// TestArrayLenIsPure: array lengths are immutable, so a store between two
// .length reads must not prevent the merge.
func TestArrayLenIsPure(t *testing.T) {
	mod := compiled(t, `
class Main {
    static void main() {
        int[] a = new int[7];
        int x = a.length;
        a[0] = 5;
        int y = a.length;
        System.out.println(x + y);
    }
}`)
	before := countOp(mod, core.OpArrayLen)
	opt.Optimize(mod)
	after := countOp(mod, core.OpArrayLen)
	if before != 2 || after != 1 {
		t.Fatalf("arraylen CSE: %d -> %d, want 2 -> 1", before, after)
	}
}

// TestCheckEliminationRemovesExceptionEdges: when CSE deletes a redundant
// check inside a try, the handler loses the corresponding phi operand and
// the program still runs correctly.
func TestCheckEliminationRemovesExceptionEdges(t *testing.T) {
	src := `
class Main {
    static int f(int[] a, int i) {
        try {
            return a[i] + a[i] + a[i];
        } catch (IndexOutOfBoundsException e) {
            return -1;
        } catch (NullPointerException e) {
            return -2;
        }
    }
    static void main() {
        int[] a = new int[2];
        a[1] = 50;
        System.out.println(f(a, 1));
        System.out.println(f(a, 7));
        System.out.println(f(null, 0));
    }
}`
	mod := compiled(t, src)
	want, err := driver.RunModule(mod, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	mod2 := compiled(t, src)
	st := opt.Optimize(mod2)
	if st.ArrayChecksAfter >= st.ArrayChecksBefore {
		t.Fatalf("no array checks eliminated inside try: %d -> %d",
			st.ArrayChecksBefore, st.ArrayChecksAfter)
	}
	if err := mod2.Verify(core.VerifyOptions{}); err != nil {
		t.Fatalf("edges inconsistent after check elimination: %v", err)
	}
	got, err := driver.RunModule(mod2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("behaviour changed: %q vs %q", got, want)
	}
	if want != "150\n-1\n-2\n" {
		t.Fatalf("exception dispatch wrong: %q", want)
	}
}

// TestConstFoldDivideByNonZero: constant folding never folds integer
// division (it may throw), keeping the xprimitive intact.
func TestConstFoldKeepsXPrims(t *testing.T) {
	mod := compiled(t, `
class Main {
    static void main() {
        int z = 0;
        try {
            int x = 10 / z;
            System.out.println(x);
        } catch (ArithmeticException e) {
            System.out.println("caught");
        }
    }
}`)
	opt.Optimize(mod)
	if countOp(mod, core.OpXPrim) == 0 {
		t.Fatal("the potentially-throwing division was folded away")
	}
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil || out != "caught\n" {
		t.Fatalf("division semantics lost: %q %v", out, err)
	}
}

// cseScopeSrc has one function per corner of CSE's scoping. The value
// table is scoped by the dominator tree — an entry is visible in the
// block that made it and in the blocks that block dominates, nowhere else
// — and a load is keyed by its memory version, which a loop header's
// memory phi renews.
const cseScopeSrc = `
class P { int x; int y; }
class Main {
    // a*b in the dominator serves both arms of the if.
    static int dom(int a, int b, boolean c) {
        int d = a * b;
        int r = 0;
        if (c) { r = a * b + 1; } else { r = a * b + 2; }
        return r + d;
    }
    // a*b in the then-arm serves neither the else-arm nor the join.
    static int arm(int a, int b, boolean c) {
        int r = 0;
        if (c) { r = a * b; } else { r = a * b + 1; }
        return r + a * b;
    }
    // The body's p.x sits behind the header's memory phi (the body
    // stores to p.x): the load before the loop does not serve it.
    static int loop(P p, int n) {
        int s = p.x;
        for (int i = 0; i < n; i++) { s += p.x; p.x = s; }
        return s;
    }
    // The body stores to p.y only: one Mem renews p.x all the same, a
    // Mem per field does not.
    static int other(P p, int n) {
        int s = p.x;
        for (int i = 0; i < n; i++) { s += p.x; p.y = s; }
        return s;
    }
    static void main() {
        System.out.println(dom(3, 4, true) + " " + dom(3, 4, false));
        System.out.println(arm(3, 4, true) + " " + arm(3, 4, false));
        P p = new P();
        p.x = 1;
        System.out.println(loop(p, 4));
        p.x = 2;
        System.out.println(other(p, 3) + " " + p.y);
    }
}`

// TestCSEScopeFollowsDominators: what the scoped value table lets through
// and what it must not, under both Mem variants. The surviving counts pin
// the scoping; the verifier and the run pin that no use was rewritten to
// a value that does not dominate it.
func TestCSEScopeFollowsDominators(t *testing.T) {
	countIn := func(m *core.Module, fn string, match func(*core.Instr) bool) int {
		n := 0
		for _, f := range m.Funcs {
			if m.FuncName(f) != fn {
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Code {
					if match(in) {
						n++
					}
				}
			}
		}
		return n
	}
	mul := func(in *core.Instr) bool { return in.Op == core.OpPrim && in.Prim == core.PIMul }
	for _, tc := range []struct {
		name            string
		o               opt.Options
		otherLoadsAfter int
	}{
		{"single Mem", opt.Options{}, 2},
		{"Mem per field", opt.Options{FieldSensitiveMem: true}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := compiled(t, cseScopeSrc)
			loadX := func(in *core.Instr) bool {
				return in.Op == core.OpGetField && mod.Fields[in.Field].Name == "x"
			}
			want, err := driver.RunModule(mod, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if want != "25 26\n24 25\n16\n8 8\n" {
				t.Fatalf("unoptimized run printed %q", want)
			}
			for _, c := range []struct {
				fn     string
				match  func(*core.Instr) bool
				before int
			}{
				{"Main.dom", mul, 3}, {"Main.arm", mul, 3}, {"Main.loop", loadX, 2}, {"Main.other", loadX, 2},
			} {
				if got := countIn(mod, c.fn, c.match); got != c.before {
					t.Fatalf("%s: %d matching instructions before optimization, want %d", c.fn, got, c.before)
				}
			}
			opt.OptimizeWithOptions(mod, tc.o)
			if err := mod.Verify(core.VerifyOptions{}); err != nil {
				t.Fatalf("verifier after optimization: %v", err)
			}
			for _, c := range []struct {
				fn    string
				match func(*core.Instr) bool
				after int
				why   string
			}{
				{"Main.dom", mul, 1, "the dominator's a*b serves both arms"},
				{"Main.arm", mul, 3, "the then-arm's a*b serves neither the else-arm nor the join"},
				{"Main.loop", loadX, 2, "the back edge's memory phi renews p.x"},
				{"Main.other", loadX, tc.otherLoadsAfter, "a store to p.y renews p.x under one Mem only"},
			} {
				if got := countIn(mod, c.fn, c.match); got != c.after {
					t.Errorf("%s: %d matching instructions after optimization, want %d (%s)", c.fn, got, c.after, c.why)
				}
			}
			got, err := driver.RunModule(mod, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("optimized run printed %q, unoptimized %q", got, want)
			}
		})
	}
}
