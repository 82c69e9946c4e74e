package interp_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
)

func load(t *testing.T, src string) (*interp.Loader, *bytes.Buffer) {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	l, err := interp.LoadTrusted(mod, &rt.Env{Out: &out, MaxSteps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return l, &out
}

func TestCallStatic(t *testing.T) {
	l, _ := load(t, `
class Calc {
    static int triple(int x) { return x * 3; }
    static long wide(long x) { return x + 1L; }
}`)
	v, err := l.CallStatic("Calc", "triple", rt.IntValue(14))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 42 {
		t.Fatalf("triple(14) = %d", v.Int())
	}
	v, err = l.CallStatic("Calc", "wide", rt.LongValue(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 1<<40+1 {
		t.Fatalf("wide = %d", v.I)
	}
	if _, err := l.CallStatic("Calc", "nope"); err == nil {
		t.Fatal("missing method found")
	}
}

func TestCallStaticSurfacesExceptions(t *testing.T) {
	l, _ := load(t, `
class Boom {
    static int go(int d) { return 10 / d; }
}`)
	if _, err := l.CallStatic("Boom", "go", rt.IntValue(0)); err == nil ||
		!strings.Contains(err.Error(), "ArithmeticException") {
		t.Fatalf("want arithmetic exception, got %v", err)
	}
}

func TestExceptionUnwindsManyFrames(t *testing.T) {
	l, out := load(t, `
class Main {
    static int dive(int n) {
        if (n == 0) { throw new Exception("bottom"); }
        return dive(n - 1);
    }
    static void main() {
        try {
            dive(50);
        } catch (Exception e) {
            System.out.println("caught " + e.getMessage());
        }
    }
}`)
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "caught bottom\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestFinallyRunsOnExceptionalReturnPath(t *testing.T) {
	l, out := load(t, `
class Main {
    static int f(boolean blow) {
        try {
            if (blow) { throw new Exception("x"); }
            return 1;
        } catch (Exception e) {
            return 2;
        } finally {
            System.out.println("fin");
        }
    }
    static void main() {
        System.out.println(f(false));
        System.out.println(f(true));
    }
}`)
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "fin\n1\nfin\n2\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestDispatchThroughDeepHierarchy(t *testing.T) {
	l, out := load(t, `
class A { int tag() { return 1; } }
class B extends A { int tag() { return 2; } }
class C extends B {}
class D extends C { int tag() { return 4; } }
class Main {
    static void main() {
        A[] xs = new A[4];
        xs[0] = new A(); xs[1] = new B(); xs[2] = new C(); xs[3] = new D();
        for (int i = 0; i < xs.length; i++) {
            System.out.print(xs[i].tag());
        }
        System.out.println();
    }
}`)
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1224\n" {
		t.Fatalf("dispatch result %q", out.String())
	}
}

func TestStaticInitializationOrder(t *testing.T) {
	l, out := load(t, `
class First { static int a = 10; }
class Second { static int b = First.a * 2; }
class Main {
    static void main() { System.out.println(Second.b); }
}`)
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "20\n" {
		t.Fatalf("clinit order: %q", out.String())
	}
}

func TestLoaderRejectsNoMain(t *testing.T) {
	l, _ := load(t, `class Quiet { int x; }`)
	if err := l.RunMain(); err == nil {
		t.Fatal("RunMain on a module without main succeeded")
	}
}

func TestStepLimitSurfacesAsError(t *testing.T) {
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static void main() {
        int i = 0;
        while (true) { i++; }
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	_, err = driver.RunModule(mod, 10_000)
	if !errors.Is(err, rt.ErrStepLimit) {
		t.Fatalf("want step-limit error, got %v", err)
	}
}
