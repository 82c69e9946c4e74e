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
// the tree that set it measured plus 10 %, or the ceiling it replaced
// where that was lower. A prepared function keeps its
// code, operand vectors, move sets and raise sites in memory of its own;
// the lowerer's buffers, pending-jump lists included, are reused from one
// function to the next. The count is exact for a given tree.
var lowerAllocCeiling = map[string]float64{
	"BatchEnvironment":        149, // measured 135
	"BatchParser":             61,  // measured 55
	"CompilerMember":          22,  // measured 20
	"ErrorMessage":            25,  // measured 22
	"Main":                    118, // measured 107
	"SourceClass":             134, // measured 121
	"SourceMember":            108, // measured 98
	"AmbiguousClass":          18,  // measured 16
	"AmbiguousMember":         27,  // measured 24
	"ArrayType":               27,  // measured 25
	"BinaryAttribute":         44,  // measured 40
	"BinaryClass":             82,  // measured 74
	"BinaryCode":              46,  // measured 41
	"Parser":                  97,  // measured 88
	"Scanner":                 47,  // measured 42
	"BigDecimal":              52,  // measured 47
	"BigInteger":              65,  // measured 59
	"BitSieve":                36,  // measured 32
	"MutableBigInteger":       63,  // measured 57
	"SignedMutableBigInteger": 76,  // measured 69
	"Linpack":                 58,  // measured 52
}

// compileAllocCeiling is the same for one interp.Compile call over the
// unit's prepared form: the encoding half of lowering, into code memory
// of the form's own. Its count is the form and its arena's chunks — a
// chunk per ~128 records and per function longer than that, per kind of
// side array — so it follows the functions, not the instructions: a
// pair is a handler chosen for a record, never a record beside one.
var compileAllocCeiling = map[string]float64{
	"BatchEnvironment":        49, // measured 44
	"BatchParser":             21, // measured 19
	"CompilerMember":          10, // measured 9
	"ErrorMessage":            11, // measured 10
	"Main":                    38, // measured 34
	"SourceClass":             51, // measured 46
	"SourceMember":            39, // measured 35
	"AmbiguousClass":          8,  // measured 7
	"AmbiguousMember":         13, // measured 11
	"ArrayType":               10, // measured 9
	"BinaryAttribute":         18, // measured 16
	"BinaryClass":             30, // measured 27
	"BinaryCode":              19, // measured 17
	"Parser":                  19, // measured 17
	"Scanner":                 18, // measured 16
	"BigDecimal":              16, // measured 14
	"BigInteger":              22, // measured 20
	"BitSieve":                13, // measured 11
	"MutableBigInteger":       20, // measured 18
	"SignedMutableBigInteger": 22, // measured 20
	"Linpack":                 24, // measured 21
}

// TestLowerAllocCeiling is the lowering half of ROADMAP item 1's exact
// gate: allocations per prepared and per compiled unit against the
// committed ceilings; lowering every function of a unit into code memory
// a unit before it gave back, as a served session does, allocates
// nothing at all; and — what the ceilings cannot see — what a lowered
// function keeps was sized exactly: no slack behind its prepared code,
// its records or its side arrays, none left in its arenas.
func TestLowerAllocCeiling(t *testing.T) {
	var mem interp.CodeArena
	most := 0
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
		var comp *interp.Compiled
		got = testing.AllocsPerRun(5, func() {
			if comp, err = interp.Compile(mod, prep); err != nil {
				t.Fatal(err)
			}
		})
		// Compile encodes through a stocked lowerer, which the race
		// detector's sync.Pool may drop.
		if ceiling, ok := compileAllocCeiling[u.Name]; !ok {
			t.Errorf("%s: %.0f allocations per Compile and no committed ceiling", u.Name, got)
		} else if got > ceiling && !raceEnabled {
			t.Errorf("%s: %.0f allocations per Compile, ceiling %.0f", u.Name, got, ceiling)
		}
		for i, pf := range prep.Funcs {
			if cap(pf.Code) != len(pf.Code) {
				t.Errorf("%s: %s keeps %d instructions in room for %d", u.Name, mod.FuncName(mod.Funcs[i]), len(pf.Code), cap(pf.Code))
			}
		}
		if args, moves, err := interp.ArenaSlack(mod); err != nil || args != 0 || moves != 0 {
			t.Errorf("%s: %d operand and %d move slots counted and never used (err %v)", u.Name, args, moves, err)
		}
		if records, side := interp.CodeSlack(comp); records != 0 || side != 0 {
			t.Errorf("%s: %d records and %d side array entries kept and never used", u.Name, records, side)
		}

		if err := interp.LowerInto(mod, &mem); err != nil {
			t.Fatal(err)
		}
		most = max(most, mem.Rewind())
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(5, func() {
			if err := interp.LowerInto(mod, &mem); err != nil {
				t.Fatal(err)
			}
			mem.Rewind()
		}); got != 0 {
			t.Errorf("%s: %.0f allocations lowering every function into recycled code memory", u.Name, got)
		}
	}
	t.Logf("a corpus unit left its code memory holding at most %d B", most)
}

// throwCatchSrc throws ten frames down and catches at the top, n times.
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

// returnCatchSrc is throwCatchSrc's twin with a return for the throw: the
// same ten frames and the same Exception per iteration, built by fail and
// handed back up by value.
const returnCatchSrc = `
class ThrowCatch {
    static Exception fail() { return new Exception("x"); }
    static Exception down(int n) {
        if (n == 0) { return fail(); }
        return down(n - 1);
    }
    static int spin(int n) {
        int caught = 0;
        for (int i = 0; i < n; i++) {
            Exception e = down(8);
            if (e != null) {
                caught += 1;
            }
        }
        return caught;
    }
    static void main() { }
}
`

// TestThrowCatchHostAllocs pins that unwinding costs the host nothing: on
// a warm session of the prepared and the compiled engine, an iteration
// that throws ten frames up and catches mallocs no more than its twin
// that returns the same exception up the same frames. Two run lengths
// are differenced so the fixed cost of entering the session cancels. The
// reference walker is left out: entering a handler costs it a block
// frame of its own.
//
// The compiled engine is also held to an absolute ceiling: its frames,
// register files and argument buffers come from the session's free
// lists, so an iteration of the return twin mallocs nothing on the host.
// Without it, a fresh frame per compiled call would raise both twins
// alike and pass the comparison. The prepared machine takes a register
// file on every call, so it is held only to the comparison.
func TestThrowCatchHostAllocs(t *testing.T) {
	perIter := func(t *testing.T, src, engine string) float64 {
		mod, err := driver.CompileTSASource(map[string]string{"ThrowCatch.tj": src})
		if err != nil {
			t.Fatal(err)
		}
		prep, err := interp.Prepare(mod)
		if err != nil {
			t.Fatal(err)
		}
		var l *interp.Loader
		if engine == driver.EnginePrepared {
			l, err = interp.LoadTrustedPrepared(mod, prep, &rt.Env{Out: io.Discard})
		} else {
			var comp *interp.Compiled
			if comp, err = interp.Compile(mod, prep); err != nil {
				t.Fatal(err)
			}
			l, err = interp.LoadTrustedCompiled(mod, comp, &rt.Env{Out: io.Discard})
		}
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
		return (spin(long) - spin(short)) / (long - short)
	}
	for _, engine := range []string{driver.EnginePrepared, driver.EngineCompiled} {
		t.Run(engine, func(t *testing.T) {
			throws, returns := perIter(t, throwCatchSrc, engine), perIter(t, returnCatchSrc, engine)
			if throws > returns+0.1 {
				t.Errorf("%.2f host allocations per throw-and-catch iteration, %.2f per return iteration", throws, returns)
			}
			if engine == driver.EngineCompiled && returns > 0.1 {
				t.Errorf("%.2f host allocations per compiled return iteration of ten calls, want none", returns)
			}
		})
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
