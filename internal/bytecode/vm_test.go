package bytecode_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"safetsa/internal/bytecode"
	"safetsa/internal/driver"
	"safetsa/internal/rt"
)

// entryPrograms each offer more than one method named main; the entry is
// the first static main() or main(String[]) in declaration order, on the
// VM as on SafeTSA.
var entryPrograms = []struct{ name, src, want string }{
	{"BothMains", `class A {
		static void main() { System.out.println("no args"); }
		static void main(String[] args) { System.out.println("args"); }
	}`, "no args\n"},
	{"ArgsFirst", `class A {
		static void main(String[] args) { System.out.println("args"); }
		static void main() { System.out.println("no args"); }
	}`, "args\n"},
	{"EarlierMainIsNoEntry", `class A {
		static void main(int x) { System.out.println("A " + x); }
	}
	class B {
		static void main() { System.out.println("B"); }
	}`, "B\n"},
}

// TestEntryIsSSABuildsChoice: the entry does not depend on map order (50
// runs each), and the VM runs the method SafeTSA runs.
func TestEntryIsSSABuildsChoice(t *testing.T) {
	for _, p := range entryPrograms {
		t.Run(p.name, func(t *testing.T) {
			files := map[string]string{"Main.tj": p.src}
			prog, err := driver.Frontend(files)
			if err != nil {
				t.Fatal(err)
			}
			bc, err := bytecode.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := driver.CompileTSASource(files)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if out, err := driver.RunBytecode(bc, 1_000_000); err != nil || out != p.want {
					t.Fatalf("VM run %d: %q, %v; want %q", i, out, err, p.want)
				}
				if out, err := driver.RunModule(mod, 1_000_000); err != nil || out != p.want {
					t.Fatalf("SafeTSA run %d: %q, %v; want %q", i, out, err, p.want)
				}
			}
		})
	}
}

// TestNewVMLinksClasses: NewVM refuses a program that defines a class
// twice, or redefines an imported one, and one whose superclasses do not
// resolve.
func TestNewVMLinksClasses(t *testing.T) {
	class := func(name, super string) *bytecode.ClassFile {
		return &bytecode.ClassFile{Name: name, Super: super, CP: bytecode.NewConstPool()}
	}
	for _, tc := range []struct {
		name    string
		classes []*bytecode.ClassFile
		err     string
	}{
		{"distinct", []*bytecode.ClassFile{class("A", "Object"), class("B", "A")}, ""},
		{"subclass first", []*bytecode.ClassFile{class("B", "A"), class("A", "Object")}, ""},
		{"twice", []*bytecode.ClassFile{class("A", "Object"), class("A", "Object")}, "bytecode: class A redefined"},
		{"twice, other supers", []*bytecode.ClassFile{class("A", "Object"), class("B", "Object"), class("A", "B")}, "bytecode: class A redefined"},
		{"imported", []*bytecode.ClassFile{class("String", "Object")}, "bytecode: class String redefined"},
		{"unknown super", []*bytecode.ClassFile{class("A", "Nowhere")}, "bytecode: unresolved superclasses"},
		{"cycle", []*bytecode.ClassFile{class("A", "B"), class("B", "A")}, "bytecode: unresolved superclasses"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := bytecode.NewVM(&bytecode.Program{Classes: tc.classes}, rt.NewEnv(&bytes.Buffer{}, rt.Budget{}, nil))
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err {
				t.Errorf("NewVM: %q, want %q", got, tc.err)
			}
		})
	}
}

// callsSrc makes static, virtual, non-virtual and constructor calls, n
// rounds of each, and prints a number of the same width for every n.
const callsSrc = `class Base {
	int k;
	Base(int k0) { k = k0; }
	int get(int i) { return i + k; }
	long wide(long x) { return x * 2L; }
}
class Sub extends Base {
	Sub() { super(3); }
	int get(int i) { return super.get(i) + 1; }
}
class Calls {
	static int twice(int x) { return x + x; }
	static double half(double d) { return d / 2.0; }
	static void main() {
		Base a = new Base(1);
		Base b = new Sub();
		long acc = 0L;
		double d = 0.0;
		for (int i = 0; i < %d; i++) {
			acc = acc + twice(i) + a.get(i) + b.get(i) + a.wide(2L);
			d = d + half(1.0);
		}
		System.out.println((acc %% 1000L) + 1000L);
		System.out.println(d > 0.0);
	}
}`

// TestCallsAllocateNothing: a call reuses its depth's activation record,
// so a run that makes twice the calls makes as many host allocations.
func TestCallsAllocateNothing(t *testing.T) {
	allocs := func(n int) float64 {
		prog, err := driver.Frontend(map[string]string{"Calls.tj": fmt.Sprintf(callsSrc, n)})
		if err != nil {
			t.Fatal(err)
		}
		bc, err := bytecode.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := driver.RunBytecode(bc, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The session heap's recycled chunks come from a sync.Pool, which the
	// race detector makes drop some of what it is given.
	slack := 0.0
	if raceEnabled {
		slack = 2
	}
	if one, two := allocs(1000), allocs(2000); two > one+slack || one > two+slack {
		t.Errorf("1000 rounds of calls: %v host allocations per run; 2000 rounds: %v", one, two)
	}
}

// TestVMsShareAProgram: a Program is read-only to the VMs that run it —
// link state is each VM's own — so two may run one at once (CI runs this
// package under -race).
func TestVMsShareAProgram(t *testing.T) {
	src := strings.Replace(fmt.Sprintf(callsSrc, 300), "class Calls {", `class Boom extends Exception { Boom() { } }
class Calls {
	static int risky(int i) throws Boom { if (i % 3 == 0) { throw new Boom(); } return i; }`, 1)
	src = strings.Replace(src, "d = d + half(1.0);", "d = d + half(1.0); try { acc = acc + risky(i); } catch (Boom e) { acc = acc - 1L; }", 1)
	prog, err := driver.Frontend(map[string]string{"Calls.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := driver.RunBytecode(bc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if out, err := driver.RunBytecode(bc, 0); err != nil || out != want {
					t.Errorf("run %d: %q, %v; want %q", i, out, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
