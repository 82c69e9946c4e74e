package interp_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"safetsa/internal/driver"
	"safetsa/internal/rt"
)

// depthGuests recurse without end, each through a different kind of
// activation. The Rec row is the 164-byte unit that used to end the
// process: the step budget does not get there before the host's stack
// does.
var depthGuests = []struct{ name, src string }{
	{"Rec", `class Rec { static int f(int n) { return f(n+1)+1; }
		static void main() { System.out.println("" + f(0)); } }`},
	{"Mutual", `class M { static int a(int n) { return b(n+1)+1; } static int b(int n) { return a(n+1)+2; }
		static void main() { System.out.println("" + a(0)); } }`},
	{"Dispatch", `class A { int g(int n) { return this.g(n+1)+1; } }
		class B extends A { int g(int n) { return super.g(n)+1; } }
		class D { static void main() { A a = new B(); System.out.println("" + a.g(0)); } }`},
	{"StaticInit", `class S { static int x = f(0); static int f(int n) { return f(n+1)+1; }
		static void main() { System.out.println("" + x); } }`},
	{"TryFinally", tryFinallyRecSrc},
	{"Catching", `class C { static int f(int n) { try { return f(n+1)+1; } catch (Exception e) { return 0; } }
		static void main() { System.out.println("" + f(0)); } }`},
	{"Wide", `class W { static int f(int n) { ` + wideLocals(300) + ` return f(n+1)+a299; }
		static void main() { System.out.println("" + f(0)); } }`},
	{"Nested", `class N { static int f(int n, boolean b) { ` + strings.Repeat("if (b) { ", 40) + `return f(n+1, b)+1;` + strings.Repeat(" }", 40) + ` return 0; }
		static void main() { System.out.println("" + f(0, true)); } }`},
}

const tryFinallyRecSrc = `class T { static int f(int n) { try { return f(n+1)+1; } finally { n = n + 1; } }
	static void main() { System.out.println("" + f(0)); } }`

// wideLocals declares n int locals a0..a(n-1), each a register.
func wideLocals(n int) string {
	var sb strings.Builder
	sb.WriteString("int a0 = n;")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, " int a%d = a%d + %d;", i, i-1, i)
	}
	return sb.String()
}

var allEngines = []string{driver.EngineReference, driver.EnginePrepared, driver.EngineCompiled}

// TestDepthKillLandsOnOneStep: every endless recursion dies of the depth
// limit — an uncatchable kill, the handlers it passes notwithstanding —
// after the same number of steps and allocations on all three engines,
// with the same output and heap. The step budget is the served default,
// which none of them reaches.
func TestDepthKillLandsOnOneStep(t *testing.T) {
	for _, g := range depthGuests {
		t.Run(g.name, func(t *testing.T) {
			mod, prep, comp := lowered(t, g.src)
			const steps, allocs = 50_000_000, 64 << 20
			ref := runSession(t, mod, prep, comp, driver.EngineReference, steps, allocs)
			if rt.KillReason(ref.err) != "depth_limit" {
				t.Fatalf("reference ended with %v after %d steps, want a depth kill", ref.err, ref.steps)
			}
			for _, engine := range allEngines[1:] {
				compareSessions(t, engine, ref, runSession(t, mod, prep, comp, engine, steps, allocs))
			}
		})
	}
}

// TestDeepButBoundedRecursionRuns: the limit is a bound on hostile
// guests, not on recursive ones; ten thousand frames return.
func TestDeepButBoundedRecursionRuns(t *testing.T) {
	mod, prep, comp := lowered(t, `class R { static int f(int n) { if (n == 0) { return 0; } return f(n-1)+1; }
		static void main() { System.out.println(f(10000)); } }`)
	for _, engine := range allEngines {
		if got := runSession(t, mod, prep, comp, engine, 1<<24, 1<<20); got.err != nil || got.out != "10000\n" {
			t.Errorf("%s: %q, %v", engine, got.out, got.err)
		}
	}
}

// throwThroughEightSrc throws from eight frames down and catches at the
// top, rounds times. The frames in between have no handler, so on the
// engines that unwind by Go panic they never reach their own exit.
const throwThroughEightSrc = `
class Drift {
    static int down(int d) {
        if (d == 0) { throw new Exception("bottom"); }
        return down(d - 1) + 1;
    }
    static void main() {
        int caught = 0;
        for (int i = 0; i < %d; i++) {
            try {
                caught += down(8);
            } catch (Exception e) {
                caught += 1;
            }
        }
        System.out.println(caught);
    }
}
`

// TestThrowAcrossFramesDoesNotDrift: an exception that crosses frames
// gives their slots back. Were the live-slot count only credited on
// return, each round here would leak eight frames of it and the engines
// that unwind by panic would die of depth_limit some thousands of rounds
// in, while the compiled engine ran on.
func TestThrowAcrossFramesDoesNotDrift(t *testing.T) {
	rounds := 100_000
	if testing.Short() {
		rounds = 20_000
	}
	src := fmt.Sprintf(throwThroughEightSrc, rounds)
	mod, prep, comp := lowered(t, src)
	want := fmt.Sprintf("%d\n", rounds)
	ref := runSession(t, mod, prep, comp, driver.EngineReference, 0, 0)
	if ref.err != nil || ref.out != want {
		t.Fatalf("reference: %q, %v", ref.out, ref.err)
	}
	for _, engine := range allEngines[1:] {
		compareSessions(t, engine, ref, runSession(t, mod, prep, comp, engine, 0, 0))
	}
	prog, err := driver.Frontend(map[string]string{"Drift.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := driver.RunBytecode(bc, 0); err != nil || out != want {
		t.Errorf("bytecode VM: %q, %v", out, err)
	}
}

// TestKillUnwindsInLinearTime: a kill passes every handler armed below
// it, and must do so without being recovered and raised again at each —
// that made dying quadratic in the depth, where no interrupt can reach:
// these 8 000 frames under try took the reference walker 108 s to die of
// a step limit, the prepared engine 26 s.
func TestKillUnwindsInLinearTime(t *testing.T) {
	mod, prep, comp := lowered(t, tryFinallyRecSrc)
	for _, engine := range allEngines {
		start := time.Now()
		got := runSession(t, mod, prep, comp, engine, 64_000, 0)
		if rt.KillReason(got.err) != "step_limit" {
			t.Fatalf("%s ended with %v", engine, got.err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s took %v to die 8 000 frames deep", engine, d)
		}
	}
}

// TestHeapChecksumIsNotRecursive: a list too long for a recursive walk's
// stack to be cheap digests to the same checksum on every engine, from a
// walk that keeps its own stack.
func TestHeapChecksumIsNotRecursive(t *testing.T) {
	mod, prep, comp := lowered(t, `class Node { Node next; }
		class L { static Node head;
		static void main() { for (int i = 0; i < 200000; i++) { Node n = new Node(); n.next = head; head = n; } } }`)
	ref := runSession(t, mod, prep, comp, driver.EngineReference, 0, 0)
	if ref.err != nil || ref.heap == 0 {
		t.Fatalf("reference: %v, heap %#x", ref.err, ref.heap)
	}
	compareSessions(t, driver.EngineCompiled, ref, runSession(t, mod, prep, comp, driver.EngineCompiled, 0, 0))
}
