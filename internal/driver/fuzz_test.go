package driver_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// TestRandomProgramDifferential generates random (deterministic) TJ
// programs and pushes each through the shared four-pipeline oracle —
// bytecode VM, SafeTSA evaluator, per-pass-verified optimized SafeTSA,
// and the wire round trip — which must all print the same checksum.
// This is the broad-spectrum bug net over the whole system; the same
// oracle backs FuzzDifferential below, so every seed here is also a
// replayable fuzz baseline.
func TestRandomProgramDifferential(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 8
	}
	budgets := oracle.Budgets{MaxSteps: 50_000_000, MaxAlloc: 1 << 26}
	for i := 0; i < n; i++ {
		seed := fmt.Sprintf("%d", i)
		t.Run("seed"+seed, func(t *testing.T) {
			files := corpus.GenerateFuzz(seed, 4+i%5, 3+i%4)
			if _, err := oracle.Differential(files, budgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// deepSources are the shapes whose tree is as deep as the source is long,
// each at a size that crosses the parser's depth bound (1000 levels):
// nesting the parser recurses into, and chains a loop in it builds for
// the walks behind it to recurse over.
func deepSources() (srcs []string) {
	const n = 1100
	for _, s := range []struct{ open, mid, close string }{
		{"(", "1", ")"},
		{"1+", "1", ""},
		{"- ", "1", ""},
		{"", "a", "[0]"},
		{"", "a", ".f"},
		{"a=", "1", ""},
		{"c?1:", "0", ""},
		{"f(", "1", ")"},
	} {
		srcs = append(srcs, "class G { static void main() { int x = "+
			strings.Repeat(s.open, n)+s.mid+strings.Repeat(s.close, n)+"; } }")
	}
	for _, s := range []struct{ open, close string }{
		{"{", "}"},
		{"if(c)", ""},
		{"while(c){", "}"},
		{"try{", "}finally{}"},
	} {
		srcs = append(srcs, "class G { static void main() { "+
			strings.Repeat(s.open, n)+";"+strings.Repeat(s.close, n)+" } }")
	}
	return append(srcs, "class G { int"+strings.Repeat("[]", n)+" x; }")
}

// TestDeepSourceIsAParseError: each of them is refused as a syntax error,
// by the parser, whatever walk it would have overflowed.
func TestDeepSourceIsAParseError(t *testing.T) {
	for _, src := range deepSources() {
		_, err := driver.Frontend(map[string]string{"G.tj": src})
		if driver.KindOf(err) != driver.KindParse || !strings.Contains(err.Error(), "nesting deeper") {
			t.Errorf("%.40q…: got %v, want the parser's depth error", src, err)
		}
	}
}

// TestProducerStackAtDepthBound is why the walks behind the parser carry
// no depth counter of their own: trees as deep as the parser lets them be,
// of every kind of level, go through the whole producer — sema, ssabuild,
// the module-level optimizer, the wire encoder and the bytecode compiler
// — on a goroutine stack capped at 8 MiB, under a hundredth of the
// ceiling whose overflow ends the process (DESIGN.md §9). A walk that
// outgrows the cap ends this test binary with "stack overflow". The
// shapes in cstBound nest their control structure tree deeper than the
// wire format carries (core.MaxCSTDepth): they go through sema, the
// bytecode compiler and ssabuild, and there the producer refuses them.
func TestProducerStackAtDepthBound(t *testing.T) {
	const n = 980 // levels; the parser's bound is 1000 and a method body starts a few down
	cstBound := map[string]bool{"ternaries": true, "and": true, "ifs": true, "whiles": true}
	rep := strings.Repeat
	for name, member := range map[string]string{
		"parentheses": "static int f(int a) { return " + rep("(", n) + "1" + rep(")", n) + "; }",
		"sum":         "static int f(int a) { return " + rep("a+", n) + "1; }",
		"concat":      "static String f(String a) { return " + rep("a+", n) + "a; }",
		"negations":   "static int f(int a) { return " + rep("- ", n) + "a; }",
		"assigns":     "static int f(int a) { return " + rep("a=", n) + "1; }",
		"ternaries":   "static int f(boolean c) { return " + rep("c?1:", n) + "0; }",
		"and":         "static boolean f(boolean c) { return " + rep("c&&(", n/2) + "c" + rep(")", n/2) + "; }",
		"arguments":   "static int f(int a) { return " + rep("f(", n) + "1" + rep(")", n) + "; }",
		"fields":      "P p; static P f(P a) { return a" + rep(".p", n) + "; }",
		"calls":       "P g() { return this; } static P f(P a) { return a" + rep(".g()", n) + "; }",
		"blocks":      "static int f(int a) { " + rep("{", n) + "return 1;" + rep("}", n) + " }",
		"ifs":         "static int f(boolean c) { " + rep("if(c)", n) + "return 1; return 0; }",
		"whiles":      "static int f(boolean c) { " + rep("while(c){", n/2) + "return 1;" + rep("}", n/2) + " return 0; }",
		"tries":       "static int f(int a) { " + rep("try{", n/2) + "return 1;" + rep("}finally{a=a+1;}", n/2) + " }",
		"array type":  "static void f(int a) { int" + rep("[]", n) + " x = null; Object o = new int[1]" + rep("[]", n) + "; }",
	} {
		files := map[string]string{"P.tj": "class P { " + member + " static void main() { } }"}
		done := make(chan error)
		old := debug.SetMaxStack(8 << 20)
		go func() { // a fresh stack, grown by nothing but the producer
			done <- func() error {
				prog, err := driver.Frontend(files)
				if err != nil {
					return err
				}
				if _, err := driver.CompileBytecode(prog); err != nil {
					return err
				}
				mod, err := driver.CompileTSA(prog)
				if err != nil {
					return err
				}
				if _, err := driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true}); err != nil {
					return err
				}
				wire.EncodeModuleV2(mod, nil)
				return nil
			}()
		}()
		err := <-done
		debug.SetMaxStack(old)
		if cstBound[name] {
			if driver.KindOf(err) != driver.KindParse || !strings.Contains(fmt.Sprint(err), "control structure nesting deeper") {
				t.Errorf("%s: %v, want the producer's CST bound", name, err)
			}
		} else if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzFrontend feeds arbitrary source bytes to the scanner, parser, and
// semantic checker. Diagnostics are the specified behaviour; panics and
// runaways are the bugs. Inputs are size-capped for the fuzzer's speed:
// the parser bounds the depth of what it builds itself.
func FuzzFrontend(f *testing.F) {
	for _, src := range []string{
		"",
		"class Main { static void main() { System.out.println(1); } }",
		"class A extends A {}",
		"class Main { static void main() { int x = 2147483648; } }",
		"class Main { static void main() { double d = 1e; } }",
		"/* unterminated",
		"class Main { static void main() { String s = \"\\u0041\"; } }",
		"class \x80 {}",
	} {
		f.Add([]byte(src))
	}
	for _, src := range deepSources() {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		if err := oracle.CheckFrontend(src); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{"Fuzz.tj": string(src)}
		want := producedBy(nil, files)
		fuzzArena.Lock()
		defer fuzzArena.Unlock()
		if got := producedBy(fuzzArena.a, files); got != want {
			t.Fatalf("through an arena every earlier input was compiled in:\n%s\nfresh:\n%s", got, want)
		}
	})
}

// fuzzArena is the arena FuzzFrontend compiles every input in a second
// time, released after each: whatever a hostile input left in it — a
// parse cut short by a bailout, a check stopped by errors — must not
// change what the next input compiles to.
var fuzzArena = struct {
	sync.Mutex
	a *driver.Arena
}{a: driver.NewArena()}

// producedBy is what the front end and ssabuild make of files, in a (nil:
// the package-level stages): the error text, or the v2 encoding.
func producedBy(a *driver.Arena, files map[string]string) string {
	ctx := context.Background()
	frontend, build := driver.FrontendContext, driver.CompileTSAContext
	if a != nil {
		defer a.Rewind()
		frontend, build = a.Frontend, a.CompileTSA
	}
	prog, err := frontend(ctx, files)
	if err != nil {
		return "frontend: " + err.Error()
	}
	mod, err := build(ctx, prog)
	if err != nil {
		return "build: " + err.Error()
	}
	return fmt.Sprintf("%x", wire.EncodeModuleV2(mod, nil))
}

// finallyPrograms pin the lowering of finally, foremost where a try
// statement's protected region ends: at the end of the try block, before
// the finally copy of the normal path. Both producers once emitted that
// copy inside the region, where the SafeTSA builder and the wire decoder
// disagreed on which handler its exception sites belong to and where the
// bytecode handler ran it twice.
var finallyPrograms = []struct{ name, src, want string }{
	// A try block without a throw site needs no handler; its body must
	// not be left behind as a block nothing branches to.
	{"Z", `class Z {
    static int n;
    static void main() {
        try { Z.n = Z.n + 1; } finally { Z.n = Z.n + 10; }
        System.out.println(Z.n);
    }
}`, "11\n"},
	// A throwing finally copy under an outer catch: its exception edge
	// belongs to the outer handler on both ends of the wire.
	{"X", `class X {
    static int[] table = new int[8];
    static int risky(int i) { if (i == 0) { throw new Exception("x"); } return i; }
    static int guarded(int i) {
        int r = 0;
        try {
            try { r = risky(i); } finally { r = r + 1; table[7] = table[7] + 1; }
        } catch (ArithmeticException e) { r = -1; }
        return r;
    }
    static void main() { System.out.println(guarded(1)); }
}`, "2\n"},
	// A finally block that throws on the normal path runs once.
	{"W", `class W {
    static int n;
    static int[] t = new int[4];
    static int g(int x) { return x; }
    static void f(int i) {
        try { W.n = W.n + W.g(0); W.n = W.n + 1; } finally { W.n = W.n + 10; W.t[i] = 1; }
    }
    static void main() {
        try { W.f(9); } catch (Exception e) { System.out.println(W.n); }
        System.out.println(W.n);
    }
}`, "11\n11\n"},
	// A return inside a catch body still owes the finally block; the
	// bytecode baseline once forgot the statement before its catch arms.
	{"R", `class R {
    static int n;
    static int g(int x) { if (x > 5) { throw new Exception("big"); } return x; }
    static int f(int x) {
        try { return R.g(x); } catch (Exception e) { return -7; } finally { R.n = R.n + 1000; }
    }
    static void main() {
        System.out.println(f(2));
        System.out.println(f(20));
        System.out.println(R.n);
    }
}`, "2\n-7\n2000\n"},
}

// TestFinallyEndsProtectedRegion holds the finally programs to their
// Java output on every path a unit can take: the four-pipeline oracle,
// then each optimizer tier encoded at each wire version, decoded,
// verified, and run on all three engines.
func TestFinallyEndsProtectedRegion(t *testing.T) {
	ctx := context.Background()
	for _, p := range finallyPrograms {
		t.Run(p.name, func(t *testing.T) {
			files := map[string]string{p.name + ".tj": p.src}
			got, err := oracle.Differential(files, oracle.Budgets{})
			if err != nil {
				t.Fatal(err)
			}
			if got != p.want {
				t.Fatalf("pipelines agree on %q, Java prints %q", got, p.want)
			}
			tiers := []struct {
				name string
				opts *opt.Options
			}{{"O0", nil}, {"O1", &opt.Options{}}, {"O2", &opt.Options{ModuleLevel: true}}}
			for _, tier := range tiers {
				mod, err := driver.CompileTSASource(files)
				if err != nil {
					t.Fatal(err)
				}
				if tier.opts != nil {
					if _, err := driver.OptimizeModuleOptions(ctx, mod, *tier.opts); err != nil {
						t.Fatalf("%s: %v", tier.name, err)
					}
				}
				for v, data := range [][]byte{wire.EncodeModule(mod), wire.EncodeModuleV2(mod, nil)} {
					where := fmt.Sprintf("%s wire v%d", tier.name, v+1)
					dec, err := wire.DecodeVerified(data)
					if err != nil {
						t.Fatalf("%s: the producer's own unit is rejected: %v", where, err)
					}
					if err := oracle.PreparedDifferential(data, oracle.Budgets{}); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					for _, engine := range []string{driver.EngineCompiled, driver.EngineReference} {
						got, err := driver.RunModuleEngine(ctx, dec, 1<<20, engine)
						if err != nil || got != p.want {
							t.Errorf("%s, %s engine: output %q, error %v; want %q", where, engine, got, err, p.want)
						}
					}
				}
			}
		})
	}
}

// terminatesOnBaseline reports whether files is a valid program that the
// bytecode baseline verifies and runs to completion within maxSteps.
func terminatesOnBaseline(files map[string]string, maxSteps int64) bool {
	prog, err := driver.Frontend(files)
	if err != nil {
		return false
	}
	bc, err := driver.CompileBytecode(prog)
	if err != nil || bc.Verify() != nil {
		return false
	}
	_, err = driver.RunBytecode(bc, maxSteps)
	return err == nil
}

// FuzzDifferential lets the fuzzer steer the corpus generator: the input
// bytes pick the generator seed and program shape, and the resulting
// program must satisfy the full four-pipeline differential oracle.
// Unlike FuzzFrontend this never holds an invalid program to the oracle
// — every failure is a genuine cross-pipeline fidelity bug. An input
// that reads as TJ source is the program itself, which is how
// hand-written regression programs (constructs the generator never
// emits, such as finally) enter the seed corpus; a mutation of one
// counts only while the bytecode baseline still finishes it well inside
// the budget.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte("0"))
	f.Add([]byte("differential"))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	for _, p := range finallyPrograms {
		f.Add([]byte(p.src))
	}
	budgets := oracle.Budgets{MaxSteps: 50_000_000, MaxAlloc: 1 << 26}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte("class ")) {
			files := map[string]string{"Seed.tj": string(data)}
			if !terminatesOnBaseline(files, 1<<16) {
				t.Skip("not a short terminating program")
			}
			if _, err := oracle.Differential(files, oracle.Budgets{}); err != nil {
				t.Fatal(err)
			}
			return
		}
		h := fnv.New64a()
		h.Write(data)
		sum := h.Sum64()
		// Class names are "Fz"+seed, so the seed must be identifier-safe.
		seed := fmt.Sprintf("x%x", sum)
		methods := 2 + int(sum>>8&0xff)%6
		stmts := 2 + int(sum>>16&0xff)%5
		files := corpus.GenerateFuzz(seed, methods, stmts)
		if _, err := oracle.Differential(files, budgets); err != nil {
			t.Fatal(err)
		}
	})
}
