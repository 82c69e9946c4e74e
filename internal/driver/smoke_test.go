package driver

import (
	"context"
	"errors"
	"strings"
	"testing"

	"safetsa/internal/bytecode"
	"safetsa/internal/core"
	"safetsa/internal/rt"
)

func run(t *testing.T, src string) string {
	t.Helper()
	mod, err := CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := RunModule(mod, 50_000_000)
	if err != nil {
		t.Fatalf("run: %v (output so far: %q)", err, out)
	}
	return out
}

func TestHelloArithmetic(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int i = 2;
        int j = 40;
        System.out.println(i + j);
        System.out.println("hello " + (i * j));
    }
}`)
	want := "42\nhello 80\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestPaperFigure1Fragment(t *testing.T) {
	// The running example of Figures 1-4: if (i > 0) j = j*i+1; else
	// j = -i*2; i = j*3;
	out := run(t, `
class Main {
    static int f(int i, int j) {
        if (i > 0) {
            j = j * i + 1;
        } else {
            j = -i * 2;
        }
        i = j * 3;
        return i;
    }
    static void main() {
        System.out.println(f(5, 7));
        System.out.println(f(-4, 9));
    }
}`)
	want := "108\n24\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestLoopsAndArrays(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int[] a = new int[10];
        for (int i = 0; i < a.length; i++) {
            a[i] = i * i;
        }
        int sum = 0;
        int k = 0;
        while (k < 10) {
            sum += a[k];
            k++;
        }
        System.out.println(sum);
        do {
            sum--;
        } while (sum > 280);
        System.out.println(sum);
    }
}`)
	want := "285\n280\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestObjectsAndDispatch(t *testing.T) {
	out := run(t, `
class Shape {
    int area() { return 0; }
    int describe() { return area() * 10; }
}
class Square extends Shape {
    int side;
    Square(int s) { side = s; }
    int area() { return side * side; }
}
class Main {
    static void main() {
        Shape s = new Square(4);
        System.out.println(s.area());
        System.out.println(s.describe());
        System.out.println(s instanceof Square);
        Square q = (Square) s;
        System.out.println(q.side);
    }
}`)
	want := "16\n160\ntrue\n4\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestExceptions(t *testing.T) {
	out := run(t, `
class Main {
    static int div(int a, int b) {
        try {
            return a / b;
        } catch (ArithmeticException e) {
            System.out.println("caught: " + e.getMessage());
            return -1;
        } finally {
            System.out.println("finally");
        }
    }
    static void main() {
        System.out.println(div(10, 2));
        System.out.println(div(10, 0));
        try {
            throw new Exception("boom");
        } catch (Exception e) {
            System.out.println(e.getMessage());
        }
    }
}`)
	want := "finally\n5\ncaught: / by zero\nfinally\n-1\nboom\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestShortCircuitAndTernary(t *testing.T) {
	out := run(t, `
class Main {
    static int calls;
    static boolean bump() { calls++; return true; }
    static void main() {
        boolean a = false && bump();
        boolean b = true || bump();
        System.out.println(calls);
        boolean c = true && bump();
        System.out.println(calls);
        System.out.println(a ? 1 : 2);
        System.out.println(b ? 1 : 2);
        int x = 5;
        String s = x > 3 ? "big" : "small";
        System.out.println(s);
    }
}`)
	want := "0\n1\n2\n1\nbig\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestStringsAndStatics(t *testing.T) {
	out := run(t, `
class Main {
    static String greeting = "hi";
    static void main() {
        String s = greeting + " there";
        System.out.println(s.length());
        System.out.println(s.charAt(3));
        System.out.println(s.substring(0, 2));
        System.out.println(s.equals("hi there"));
        System.out.println(s.indexOf("there"));
        String n = null;
        System.out.println("x" + n);
    }
}`)
	want := "8\nt\nhi\ntrue\n3\nxnull\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestMultiDimArraysAndMath(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        double[][] m = new double[3][4];
        for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
                m[i][j] = i * 4 + j;
        double sum = 0.0;
        for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
                sum += m[i][j];
        System.out.println(sum);
        System.out.println(Math.sqrt(64.0));
        System.out.println(Math.abs(-3));
        System.out.println(Math.max(2.5, 7.5));
        long big = 1L << 40;
        System.out.println(big);
    }
}`)
	want := "66.0\n8.0\n3\n7.5\n1099511627776\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestUncaughtExceptionPropagates(t *testing.T) {
	mod, err := CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static void main() {
        int[] a = new int[3];
        a[5] = 1;
    }
}`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = RunModule(mod, 1_000_000)
	if err == nil || !strings.Contains(err.Error(), "IndexOutOfBounds") {
		t.Fatalf("want index error, got %v", err)
	}
}

func TestNullPointer(t *testing.T) {
	out := run(t, `
class Box { int v; }
class Main {
    static void main() {
        Box b = null;
        try {
            int x = b.v;
            System.out.println(x);
        } catch (NullPointerException e) {
            System.out.println("npe");
        }
    }
}`)
	if out != "npe\n" {
		t.Fatalf("got %q", out)
	}
}

func TestBreakContinueNested(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int total = 0;
        for (int i = 0; i < 10; i++) {
            if (i == 3) continue;
            if (i == 7) break;
            total += i;
        }
        System.out.println(total);
    }
}`)
	if out != "18\n" {
		t.Fatalf("got %q", out)
	}
}

// TestAllocationBombDiesOnTheBudget: every way this package runs a guest
// carries an allocation budget, so a loop that doubles a string a couple
// of dozen times — nowhere near any step budget — ends with
// rt.ErrAllocLimit instead of the 128 MB string it was after. The loop
// is bounded so that a run without the budget completes (and fails the
// test) rather than taking the host down.
func TestAllocationBombDiesOnTheBudget(t *testing.T) {
	files := map[string]string{"Main.tj": `
class Main {
    static void main() {
        String s = "xxxxxxxxxxxxxxxx";
        for (int i = 0; i < 23; i++) {
            s = s + s;
        }
        System.out.println(s.length());
    }
}`}
	prog, err := Frontend(files)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := CompileTSA(prog)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (string, error){
		"RunModule": func() (string, error) { return RunModule(mod, 1_000_000) },
		"RunModuleEngine compiled": func() (string, error) {
			return RunModuleEngine(context.Background(), mod, 1_000_000, EngineCompiled)
		},
		"RunBytecode": func() (string, error) { return RunBytecode(bc, 1_000_000) },
	} {
		if out, err := run(); !errors.Is(err, rt.ErrAllocLimit) {
			t.Errorf("%s: allocation bomb ended with %v (output %q), want rt.ErrAllocLimit", name, err, out)
		}
	}
}

// TestLoweringRefusalIsTheUnitsFault: the compiled engine lowers a function
// when the guest first calls it, as the daemon does, so a body the verifier
// admits and lowering refuses surfaces mid-run. It is the unit's fault, a
// KindVerify error that is errors.ErrUnsupported, as the daemon's verdict
// reads it — not the guest's. (The verifier does not look at a break's
// loop, which the decoder's shape walk checks, so a break at the top of
// main is such a body.)
func TestLoweringRefusalIsTheUnitsFault(t *testing.T) {
	mod, err := CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static void main() { System.out.println(1); }
}`})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mod.Funcs {
		if strings.HasSuffix(mod.FuncName(f), ".main") {
			f.Body.Kids = append([]*core.CSTNode{{Kind: core.CBreak}}, f.Body.Kids...)
		}
	}
	_, err = RunModuleEngine(context.Background(), mod, 1_000, EngineCompiled)
	if KindOf(err) != KindVerify || !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("run of a main that does not lower: %v (kind %v), want a verify error that is ErrUnsupported", err, KindOf(err))
	}
}

// TestUnverifiedModuleIsRefused: RunModuleEngine verifies the module
// before it picks an engine, so a module the verifier rejects is refused
// as the unit's fault on either engine, and none of it runs — not even
// the print that comes before the broken instruction.
func TestUnverifiedModuleIsRefused(t *testing.T) {
	for _, engine := range []string{EngineCompiled, EngineReference} {
		mod, err := CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static int twice(int n) { return n + n; }
    static void main() {
        System.out.println("before");
        System.out.println(twice(21));
    }
}`})
		if err != nil {
			t.Fatal(err)
		}
		broken := false
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Code {
					if in.Op == core.OpPrim && in.Prim == core.PIAdd {
						in.Prim, broken = core.PIDiv, true // a division must be an xprimitive
					}
				}
			}
		}
		if !broken || mod.Verify(core.VerifyOptions{}) == nil {
			t.Fatal("the module was not broken as the test means it to be")
		}
		out, err := RunModuleEngine(context.Background(), mod, 1_000, engine)
		if KindOf(err) != KindVerify || out != "" {
			t.Errorf("%s: unverified module ended with %v (kind %v), output %q; want a verify error and no output", engine, err, KindOf(err), out)
		}
	}
}
