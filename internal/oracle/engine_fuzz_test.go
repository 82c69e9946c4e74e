package oracle_test

import (
	"testing"

	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
)

// The engine fuzz targets share one body: every byte string that passes
// wire admission must behave identically on the reference evaluator, the
// prepared register machine, and the compiled engine
// (output, error, kill reason, budget drain, heap checksum —
// oracle.PreparedDifferential, three-way). FuzzPreparedDifferential and
// FuzzCompiledDifferential differ only in the seed programs they start
// from; both names stay because the inputs a fuzzer found under
// testdata/fuzz and CI's fuzz-smoke steps are keyed by them.
var (
	preparedSeeds = seedSet{preparedSeedSources, []string{"p0", "p1"}}
	compiledSeeds = seedSet{compiledSeedSources, []string{"c0", "c1"}}
)

// preparedSeedSources are hand-written programs aimed at the prepared
// compiler's hard cases: operands resolved across deep dominator
// chains, phi-heavy loop nests (including a parallel-move swap), and
// programs that die on the step or allocation budget mid-loop so the
// two engines' kill points must coincide exactly. The fused_* and
// threaded_* seeds aim at what the lowering does to edges: back edges
// whose sequenced moves carry a swap or a 3-cycle through register 0,
// the param and constant runs that open a body, and if/else joins whose
// jumps the compiled engine threads past when they carry no moves.
var preparedSeedSources = map[string]string{
	"deep_dominator_chain": `
class Main {
    static void main() {
        int a = 1;
        if (a > 0) {
            int b = a + 1;
            if (b > 1) {
                int c = b * 2;
                if (c > 3) {
                    int d = c - a;
                    if (d > 2) {
                        int e = d * b;
                        if (e > 5) {
                            System.out.println(a + b + c + d + e);
                        }
                    }
                }
            }
        }
    }
}`,
	"phi_heavy_loops": `
class Main {
    static void main() {
        int a = 0;
        int b = 1;
        int s = 0;
        for (int i = 0; i < 25; i++) {
            int t = a + b;
            a = b;
            b = t;
            int j = 0;
            while (j < 3) {
                s = s + (t % 7);
                j = j + 1;
            }
        }
        System.out.println(a);
        System.out.println(s);
    }
}`,
	"budget_kill_steps": `
class Main {
    static void main() {
        int i = 0;
        long s = 0L;
        while (i >= 0) {
            s = s + i;
            i = i + 1;
            if (i > 1000000000) { i = 0; }
        }
        System.out.println(s);
    }
}`,
	"budget_kill_allocs": `
class Main {
    static void main() {
        int i = 0;
        while (i < 1000000000) {
            int[] a = new int[64];
            a[0] = i;
            i = i + a.length;
        }
        System.out.println(i);
    }
}`,
	"exceptions_across_frames": `
class Main {
    static int depth(int n) {
        if (n == 0) { throw new Exception("bottom"); }
        try {
            return depth(n - 1);
        } catch (Exception e) {
            if (n % 3 == 0) { throw new Exception("re" + n); }
            return n;
        }
    }
    static void main() {
        try {
            System.out.println(depth(10));
        } catch (Exception e) {
            System.out.println("top " + e.getMessage());
        }
        int d = 0;
        try {
            System.out.println(10 / d);
        } catch (Exception e) {
            System.out.println("div " + e.getMessage());
        }
    }
}`, "fused_back_edge_swap": `
class Main {
    static void main() {
        int a = 3;
        int b = 11;
        int s = 0;
        for (int i = 0; i < 9; i++) {
            s = s + a * 2 - b;
            int t = a;
            a = b;
            b = t;
        }
        System.out.println(a);
        System.out.println(b);
        System.out.println(s);
    }
}`,
	"fused_back_edge_three_cycle": `
class Main {
    static void main() {
        int a = 1;
        int b = 20;
        int c = 300;
        int s = 0;
        int i = 0;
        do {
            s = s * 3 + a - c;
            int t = a;
            a = b;
            b = c;
            c = t;
            i = i + 1;
        } while (i < 11);
        System.out.println(a + " " + b + " " + c + " " + s);
    }
}`,
	"fused_params_and_constants": `
class Main {
    static int mix(int x, int y, long z) {
        int k = 7;
        int m = 3;
        long w = 5L;
        return x * k + y * m + (int) (z * w);
    }
    static double scale(double d, int n) {
        double h = 0.5;
        return d * h + n;
    }
    static void main() {
        int acc = 0;
        for (int i = 0; i < 6; i++) {
            acc = acc + mix(i, acc % 13, 2L);
        }
        System.out.println(acc);
        System.out.println(scale(3.0, acc));
    }
}`,
	"threaded_joins": `
class Main {
    static int classify(int n) {
        int r = 0;
        if (n % 2 == 0) {
            if (n % 3 == 0) {
                r = 6;
            } else {
                r = 2;
            }
        } else {
            if (n % 5 == 0) {
                r = 5;
            }
        }
        int q = 1;
        if (n > 10) {
            System.out.print("");
        } else {
            q = 2;
        }
        return r * 10 + q;
    }
    static void main() {
        int s = 0;
        for (int i = 0; i < 20; i++) {
            s = s + classify(i);
        }
        System.out.println(s);
    }
}`,
}

// compiledSeedSources are hand-written programs aimed at the closure
// compiler's hard cases — the fused_* seeds at its superinstructions:
// checked field and array reads with a raise in the check, every
// compare as a loop test, and a step kill between the two halves of a
// fused pair; and before them exception edges whose phi moves are baked into
// call and throw records, virtual dispatch re-resolved inside a fused
// call, parallel-move swaps on branch records, the evalPrim fallback
// tail (string building), and programs that die on the step or
// allocation budget mid-loop so the three engines' kill points must
// coincide exactly, and exceptions raised by a native (charAt,
// substring) that cross handler-less guest frames, a finally, a rethrow
// and a thrown null before something — or nothing — catches them.
var compiledSeedSources = map[string]string{
	"dispatch_chain": `
class A {
    int f() { return 1; }
}
class B extends A {
    int f() { return 2; }
}
class C extends B {
    int f() { return 3; }
}
class Main {
    static int sum(A a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            s = s + a.f();
        }
        return s;
    }
    static void main() {
        System.out.println(sum(new A(), 5) + sum(new B(), 5) + sum(new C(), 5));
    }
}`,
	"exception_edges_in_calls": `
class Main {
    static int risky(int n) {
        if (n % 4 == 0) { throw new Exception("mod4 " + n); }
        int d = n % 3;
        return 100 / d;
    }
    static void main() {
        int total = 0;
        for (int i = 1; i < 14; i++) {
            int got = 0;
            try {
                got = risky(i);
            } catch (Exception e) {
                got = i;
            }
            total = total + got;
        }
        System.out.println(total);
        try {
            Exception boom = null;
            throw boom;
        } catch (Exception e) {
            System.out.println("null " + e.getMessage());
        }
    }
}`,
	"phi_swap_branches": `
class Main {
    static void main() {
        int a = 1;
        int b = 100;
        int i = 0;
        while (i < 17) {
            int t = a;
            a = b;
            b = t;
            if (i % 2 == 0) { a = a + 1; } else { b = b - 1; }
            i = i + 1;
        }
        System.out.println(a);
        System.out.println(b);
    }
}`,
	"string_fallback_tail": `
class Main {
    static void main() {
        String s = "x";
        double d = 0.5;
        for (int i = 0; i < 6; i++) {
            s = s + i + ":" + (d * i) + ";";
        }
        System.out.println(s);
        System.out.println(s.length());
        System.out.println(s.indexOf("3:"));
    }
}`,
	"compiled_step_kill": `
class Main {
    static void main() {
        int i = 0;
        long s = 0L;
        while (i >= 0) {
            s = s + (i % 13);
            i = i + 1;
            if (i > 1000000000) { i = 0; }
        }
        System.out.println(s);
    }
}`,
	"native_throw_across_frames": `
class Main {
    static int log;
    static char deep(String s, int i) { return s.charAt(i); }
    static char mid(String s, int i) { return deep(s, i); }
    static String cut(String s, int a, int b) {
        try {
            return s.substring(a, b);
        } finally {
            log = log + 1;
        }
    }
    static int rethrow(String s, int i) {
        try {
            return mid(s, i);
        } catch (IndexOutOfBoundsException e) {
            throw new Exception("again " + e.getMessage());
        }
    }
    static int relay(String s, int i) { return rethrow(s, i) + 1; }
    static void main() {
        int acc = 0;
        for (int i = 0; i < 7; i++) {
            try {
                acc += mid("abc", i % 5);
            } catch (IndexOutOfBoundsException e) {
                acc += e.getMessage().length();
            }
            try {
                acc += cut("abcdef", i % 4, 8 - i).length();
            } catch (IndexOutOfBoundsException e) {
                acc += 100;
            }
            try {
                acc += relay("xy", i % 3);
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
            try {
                Exception none = null;
                if (i % 3 == 2) { throw none; }
            } catch (NullPointerException e) {
                acc += 1000;
            }
        }
        System.out.println(acc);
        System.out.println(log);
        System.out.println(mid("abc", 7));
    }
}`,
	"fused_field_reads": `
class Node {
    int v;
    Node next;
}
class Main {
    static int sum(Node n) {
        int s = 0;
        while (n != null) {
            s = s + n.v;
            n = n.next;
        }
        return s;
    }
    static int probe(Node n) {
        try {
            return n.v + n.next.v;
        } catch (NullPointerException e) {
            return -1;
        }
    }
    static void main() {
        Node h = null;
        for (int i = 0; i < 5; i++) {
            Node c = new Node();
            c.v = i * i;
            c.next = h;
            h = c;
        }
        System.out.println(sum(h));
        System.out.println(probe(h) + probe(h.next.next.next.next) + probe(null));
    }
}`,
	"fused_array_reads": `
class Main {
    static int at(int[] a, int i) {
        try {
            return a[0] + a[i];
        } catch (NullPointerException e) {
            return -1;
        } catch (IndexOutOfBoundsException e) {
            return -2;
        }
    }
    static void main() {
        int[] a = new int[6];
        for (int i = 0; i < a.length; i++) {
            a[i] = i * 7;
        }
        int s = 0;
        for (int i = -2; i < 9; i++) {
            s = s * 2 + at(a, i) + at(null, i);
        }
        System.out.println(s);
    }
}`,
	"fused_loop_tests": `
class Node {
    Node next;
}
class Main {
    static void main() {
        int s = 0;
        int i = 0;
        while (i < 4) { s = s + i; i = i + 1; }
        while (i <= 7) { s = s * 2 - i; i = i + 1; }
        while (i > 2) { s = s + 3; i = i - 2; }
        while (i >= -3) { s = s - i; i = i - 1; }
        while (i == -4) { i = 9; }
        while (i != 0) { s = s + i; i = i - 3; }
        Node h = new Node();
        h.next = new Node();
        Node m = h;
        while (m == h) { s = s + 5; m = m.next; }
        while (m != null) { s = s + 7; m = m.next; }
        System.out.println(s);
    }
}`,
	// The loop before the endless one sets the phase: fuzzBudgets'
	// step kill lands between the halves of a fused check pair, the
	// nullcheck and indexcheck on the plain image and the indexcheck and
	// getelt on the optimized one.
	"fused_step_kill_between_halves": `
class Main {
    static void main() {
        int[] a = new int[8];
        int s = 0;
        s = s + 1;
        s = s + 1;
        s = s + 1;
        for (int j = 0; j < 6; j++) { s = s + j; }
        int i = 0;
        while (i >= 0) {
            s = s + a[i & 7];
            i = i + 1;
        }
        System.out.println(s);
    }
}`,
	"compiled_alloc_kill": `
class Main {
    static void main() {
        int i = 0;
        String s = "a";
        while (i < 1000000000) {
            s = s + s;
            i = i + 1;
        }
        System.out.println(i);
    }
}`,
	// The depth seeds recurse in as few steps per frame as the language
	// allows, so the depth limit is reached inside fuzzBudgets' steps. The
	// one under try spends more steps a frame, so it widens its frame for
	// free: the finally's registers are charged, and a kill never runs them.
	"depth_kill_recursion": `
class Main {
    static void down() { down(); }
    static void main() {
        System.out.println("going down");
        down();
    }
}`,
	"depth_kill_under_try": `
class Main {
    static int unwound;
    static void down() {
        try {
            down();
        } finally {
            int u = unwound;
            unwound = u + u + u + u + u + u + u + u + u + u + u + u + u;
        }
    }
    static void main() {
        try {
            down();
        } catch (Exception e) {
            System.out.println("a kill is not an exception");
        }
        System.out.println(unwound);
    }
}`,
}

// fuzzBudgets is deliberately small: the budget-kill seeds must die on
// budget with room to spare inside the 30s CI smoke window.
var fuzzBudgets = oracle.Budgets{MaxSteps: 1 << 16, MaxAlloc: 1 << 18}

// fuzzEngines seeds the target with seeds and fuzzes the engine oracle
// from there. Run by CI as a 30s fuzz-smoke step per target and, on the
// generated seeds and the inputs a fuzzer found, on every plain `go test`.
func fuzzEngines(f *testing.F, seeds seedSet) {
	fuzzseed.Add(f, seeds.seeds(f))
	f.Fuzz(fuzzseed.Once(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.PreparedDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	}))
}

// TestDepthKillSeedsDieOfDepth: the depth seeds of the engine and pooled
// corpora pin what their names say — under the fuzz budgets all three
// engines end them with depth_limit on one step count (the parity check
// holds them to the reference's), not with the step kill a slower
// recursion would meet first.
func TestDepthKillSeedsDieOfDepth(t *testing.T) {
	for name, src := range map[string]string{
		"depth_kill_recursion": compiledSeedSources["depth_kill_recursion"],
		"depth_kill_under_try": compiledSeedSources["depth_kill_under_try"],
		"init_depth_kill":      pooledSeedSources["init_depth_kill"],
		"main_depth_kill":      pooledSeedSources["main_depth_kill"],
	} {
		plain, optimized := wires(t, map[string]string{"Main.tj": src})
		for _, data := range [][]byte{plain, optimized} {
			kill, steps, err := oracle.ParityOutcome(data, fuzzBudgets)
			if err != nil || kill != "depth_limit" {
				t.Errorf("%s: killed by %q after %d steps (%v), want depth_limit on every engine", name, kill, steps, err)
			}
		}
	}
}

func FuzzPreparedDifferential(f *testing.F) { fuzzEngines(f, preparedSeeds) }
func FuzzCompiledDifferential(f *testing.F) { fuzzEngines(f, compiledSeeds) }

// TestPreparedDifferentialSeeds and TestCompiledDifferentialSeeds replay
// the hand-written seeds through the engine oracle by program, so a
// failing equivalence claim — among them the mid-run step-kill and
// alloc-kill drain parity of the budget seeds — is reported by the
// program it failed on.
func TestPreparedDifferentialSeeds(t *testing.T) {
	preparedSeeds.replay(t, oracle.PreparedDifferential)
}
func TestCompiledDifferentialSeeds(t *testing.T) {
	compiledSeeds.replay(t, oracle.PreparedDifferential)
}
