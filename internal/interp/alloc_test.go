package interp_test

import (
	"context"
	"io"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// lowerAllocCeiling is the committed allocation budget of one
// interp.Prepare call per corpus unit (O2, decoded from wire v2): what
// this tree measures plus 10 %. The count is exact for a given tree.
var lowerAllocCeiling = map[string]float64{
	"BatchEnvironment":        467, // measured 424
	"BatchParser":             97,  // measured 88
	"CompilerMember":          27,  // measured 24
	"ErrorMessage":            25,  // measured 22
	"Main":                    328, // measured 298
	"SourceClass":             445, // measured 404
	"SourceMember":            328, // measured 298
	"AmbiguousClass":          18,  // measured 16
	"AmbiguousMember":         30,  // measured 27
	"ArrayType":               27,  // measured 24
	"BinaryAttribute":         64,  // measured 58
	"BinaryClass":             190, // measured 172
	"BinaryCode":              84,  // measured 76
	"Parser":                  178, // measured 161
	"Scanner":                 108, // measured 98
	"BigDecimal":              74,  // measured 67
	"BigInteger":              151, // measured 137
	"BitSieve":                43,  // measured 39
	"MutableBigInteger":       130, // measured 118
	"SignedMutableBigInteger": 157, // measured 142
	"Linpack":                 134, // measured 121
}

// TestLowerAllocCeiling is the lowering half of ROADMAP item 1's exact
// gate: allocations per prepared unit against the committed ceiling, and
// — what the ceiling cannot see — that what a lowered function keeps was
// sized exactly: no slack behind its code, none left in its arenas.
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
