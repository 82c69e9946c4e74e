package interp_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// lowerAllocCeiling is the committed allocation budget of one
// interp.Prepare call per corpus unit (O2, decoded from wire v2): what
// the tree that set it measured plus 10 %; the comments are this tree's
// counts, two higher for a unit with phis, whose lowering sequences them
// through two scratch buffers. The count is exact for a given tree.
var lowerAllocCeiling = map[string]float64{
	"BatchEnvironment":        467, // measured 426
	"BatchParser":             97,  // measured 90
	"CompilerMember":          27,  // measured 24
	"ErrorMessage":            25,  // measured 24
	"Main":                    328, // measured 300
	"SourceClass":             445, // measured 406
	"SourceMember":            328, // measured 300
	"AmbiguousClass":          18,  // measured 16
	"AmbiguousMember":         30,  // measured 29
	"ArrayType":               27,  // measured 26
	"BinaryAttribute":         64,  // measured 60
	"BinaryClass":             190, // measured 174
	"BinaryCode":              84,  // measured 78
	"Parser":                  178, // measured 163
	"Scanner":                 108, // measured 100
	"BigDecimal":              74,  // measured 69
	"BigInteger":              151, // measured 139
	"BitSieve":                43,  // measured 41
	"MutableBigInteger":       130, // measured 120
	"SignedMutableBigInteger": 157, // measured 144
	"Linpack":                 134, // measured 123
}

// compileAllocCeiling is the same for one interp.Compile call over the
// unit's prepared form: the fusing half of lowering, whose count is a
// closure per prepared instruction plus each function's thunk slice, so a
// superinstruction must be built instead of a thunk, never beside one.
var compileAllocCeiling = map[string]float64{
	"BatchEnvironment":        3044, // measured 2767
	"BatchParser":             554,  // measured 503
	"CompilerMember":          87,   // measured 79
	"ErrorMessage":            103,  // measured 93
	"Main":                    2040, // measured 1854
	"SourceClass":             2831, // measured 2573
	"SourceMember":            2063, // measured 1875
	"AmbiguousClass":          44,   // measured 40
	"AmbiguousMember":         129,  // measured 117
	"ArrayType":               104,  // measured 94
	"BinaryAttribute":         327,  // measured 297
	"BinaryClass":             1209, // measured 1099
	"BinaryCode":              431,  // measured 391
	"Parser":                  844,  // measured 767
	"Scanner":                 501,  // measured 455
	"BigDecimal":              332,  // measured 301
	"BigInteger":              836,  // measured 760
	"BitSieve":                224,  // measured 203
	"MutableBigInteger":       800,  // measured 727
	"SignedMutableBigInteger": 832,  // measured 756
	"Linpack":                 750,  // measured 681
}

// TestLowerAllocCeiling is the lowering half of ROADMAP item 1's exact
// gate: allocations per prepared and per compiled unit against the
// committed ceilings, and — what the ceilings cannot see — that what a
// lowered function keeps was sized exactly: no slack behind its code,
// none left in its arenas.
func TestLowerAllocCeiling(t *testing.T) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err == nil {
			mod, err = wire.DecodeVerified(wire.EncodeModuleV2(mod, nil))
		}
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := interp.Prepare(mod); err != nil {
				t.Fatal(err)
			}
		})
		ceiling, ok := lowerAllocCeiling[u.Name]
		if !ok {
			t.Errorf("%s: %.0f allocations per Prepare and no committed ceiling", u.Name, got)
		} else if got > ceiling {
			t.Errorf("%s: %.0f allocations per Prepare, ceiling %.0f", u.Name, got, ceiling)
		}

		prep, err := interp.Prepare(mod)
		if err != nil {
			t.Fatal(err)
		}
		got = testing.AllocsPerRun(5, func() {
			if _, err := interp.Compile(mod, prep); err != nil {
				t.Fatal(err)
			}
		})
		if ceiling, ok := compileAllocCeiling[u.Name]; !ok {
			t.Errorf("%s: %.0f allocations per Compile and no committed ceiling", u.Name, got)
		} else if got > ceiling {
			t.Errorf("%s: %.0f allocations per Compile, ceiling %.0f", u.Name, got, ceiling)
		}
		for _, pf := range prep.Funcs {
			if cap(pf.Code) != len(pf.Code) {
				t.Errorf("%s: %s keeps %d instructions in room for %d", u.Name, pf.Name, len(pf.Code), cap(pf.Code))
			}
		}
		if args, moves, err := interp.ArenaSlack(mod); err != nil || args != 0 || moves != 0 {
			t.Errorf("%s: %d operand and %d move slots counted and never used (err %v)", u.Name, args, moves, err)
		}
	}
}

// throwCatchSrc throws ten frames down and catches at the top, n times.
// Per iteration the guest itself allocates three host objects — the
// exception, its field slice, its message string — and nothing else.
const throwCatchSrc = `
class ThrowCatch {
    static int fail() { throw new Exception("x"); }
    static int down(int n) {
        if (n == 0) { return fail(); }
        return down(n - 1) + 1;
    }
    static int spin(int n) {
        int caught = 0;
        for (int i = 0; i < n; i++) {
            try {
                caught += down(8);
            } catch (Exception e) {
                caught += 1;
            }
        }
        return caught;
    }
    static void main() { }
}
`

// TestThrowCatchHostAllocs pins that unwinding costs the host nothing:
// on a warm session, each extra throw-and-catch iteration mallocs only
// what the guest allocated. Frames, register files and argument buffers
// crossed by the exception go back to the session's free lists like the
// ones a return crosses; two run lengths are differenced so the fixed
// cost of entering the session cancels.
func TestThrowCatchHostAllocs(t *testing.T) {
	mod, err := driver.CompileTSASource(map[string]string{"ThrowCatch.tj": throwCatchSrc})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		t.Fatal(err)
	}
	l, err := interp.LoadTrustedCompiled(mod, comp, &rt.Env{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	spin := func(n int32) float64 {
		return testing.AllocsPerRun(5, func() {
			got, err := l.CallStatic("ThrowCatch", "spin", rt.IntValue(n))
			if err != nil || got.Int() != n {
				t.Fatalf("spin(%d) = %d, %v", n, got.Int(), err)
			}
		})
	}
	const short, long = 100, 300
	const guestAllocs = 3 // exception object, its field slice, its message
	perThrow := (spin(long) - spin(short)) / (long - short)
	if perThrow > guestAllocs {
		t.Errorf("%.2f host allocations per throw-and-catch, the guest's own are %d", perThrow, guestAllocs)
	}
}

// wideRotateSrc rotates n int locals once per loop iteration, so the back
// edge carries n loop-carried values (plus the counter) as one n-cycle of
// phi moves.
func wideRotateSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("class Wide {\n    static int spin(int iters) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "        int a%d = %d;\n", i, i)
	}
	sb.WriteString("        for (int k = 0; k < iters; k++) {\n            int t = a0;\n")
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "            a%d = a%d;\n", i, i+1)
	}
	fmt.Fprintf(&sb, "            a%d = t;\n        }\n        return a0;\n    }\n    static void main() { }\n}\n", n-1)
	return sb.String()
}

// wideShiftSrc shifts n int locals down by one per loop iteration, the
// last statement first, so the back edge's phi moves are one n-long chain
// a1←a0, a2←a1, … listed against the order they must run in.
func wideShiftSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("class Shift {\n    static int spin(int iters) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "        int a%d = %d;\n", i, i)
	}
	sb.WriteString("        for (int k = 0; k < iters; k++) {\n")
	for i := n - 1; i > 0; i-- {
		fmt.Fprintf(&sb, "            a%d = a%d;\n", i, i-1)
	}
	fmt.Fprintf(&sb, "            a0 = k;\n        }\n        return a%d;\n    }\n    static void main() { }\n}\n", n-1)
	return sb.String()
}

// TestWideShiftLowersInLinearTime: sequencing a block's phi moves costs
// lowering time linear in their number, whatever order the phis are
// listed in. Lowering runs on a session's first call, outside the guest's
// step budget, and a chain sequenced one move per pass over the pending
// ones took cubic time: seconds of host CPU for this unit's 5000 values.
func TestWideShiftLowersInLinearTime(t *testing.T) {
	const n = 5000
	mod, err := driver.CompileTSASource(map[string]string{"Shift.tj": wideShiftSrc(n)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("lowering %d shifted loop values took %v", n, took)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		t.Fatal(err)
	}
	l, err := interp.LoadTrustedCompiled(mod, comp, &rt.Env{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	for _, iters := range []int32{0, 3, n + 7} {
		want := int32(n - 1 - iters)
		if iters >= n {
			want = iters - n
		}
		if got, err := l.CallStatic("Shift", "spin", rt.IntValue(iters)); err != nil || got.Int() != want {
			t.Errorf("spin(%d) = %d, %v; want %d", iters, got.Int(), err, want)
		}
	}
}

// TestWidePhiHostAllocs: a loop iteration costs the host no allocation,
// however many values the loop carries, on both lowered engines. A phi
// move set wider than a fixed buffer once took a fresh temporary per
// back edge — a malloc per iteration the guest's budget never saw.
func TestWidePhiHostAllocs(t *testing.T) {
	for _, n := range []int{10, 40} {
		mod, err := driver.CompileTSASource(map[string]string{"Wide.tj": wideRotateSrc(n)})
		if err != nil {
			t.Fatal(err)
		}
		prep, err := interp.Prepare(mod)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := interp.Compile(mod, prep)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{driver.EnginePrepared, driver.EngineCompiled} {
			env := &rt.Env{Out: io.Discard}
			l, err := interp.LoadTrustedCompiled(mod, comp, env)
			if engine == driver.EnginePrepared {
				l, err = interp.LoadTrustedPrepared(mod, prep, env)
			}
			if err != nil {
				t.Fatal(err)
			}
			spin := func(iters int32) float64 {
				return testing.AllocsPerRun(5, func() {
					got, err := l.CallStatic("Wide", "spin", rt.IntValue(iters))
					if err != nil || got.Int() != iters%int32(n) {
						t.Fatalf("%d values, %s: spin(%d) = %d, %v", n, engine, iters, got.Int(), err)
					}
				})
			}
			const short, long = 100, 1100
			if perIter := (spin(long) - spin(short)) / (long - short); perIter > 0 {
				t.Errorf("%d loop-carried values, %s: %.2f host allocations per iteration", n, engine, perIter)
			}
		}
	}
}
