package safetsa

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safetsa/internal/bytecode"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/rt"
)

var update = flag.Bool("update", false, "rewrite testdata/vm.golden")

// vmPinGuests are hand-written programs for the paths of the bytecode VM
// the corpus reaches rarely or not at all: the depth kill through each
// kind of activation, guest exceptions crossing many frames and caught
// again and again, an exception out of a static initializer, and the
// implicit exceptions of the imported library.
var vmPinGuests = []struct{ name, src string }{
	{"DepthStatic", `class R { static int f(int n) { return f(n+1)+1; }
		static void main() { System.out.println("" + f(0)); } }`},
	{"DepthVirtual", `class A { int g(int n) { return this.g(n+1)+1; } }
		class B extends A { int g(int n) { return super.g(n)+1; } }
		class D { static void main() { A a = new B(); System.out.println("" + a.g(0)); } }`},
	{"DepthUnderTry", `class C { static int f(int n) { try { return f(n+1)+1; } catch (Exception e) { return 0; } finally { n = n + 1; } }
		static void main() { System.out.println("" + f(0)); } }`},
	{"DepthInInit", `class S { static int x = f(0); static int f(int n) { return f(n+1)+1; }
		static void main() { System.out.println("" + x); } }`},
	{"ThrowThroughFrames", `class Boom extends Exception { int at; Boom(int a) { at = a; } }
		class T {
			static int down(int n, int k) { try { if (n == 0) { throw new Boom(k); } return down(n - 1, k) + 1; } finally { k = k + 1; } }
			static void main() {
				long sum = 0L;
				for (int r = 0; r < 3000; r++) {
					try { sum = sum + down(r % 97, r); } catch (Boom b) { sum = sum + b.at; }
				}
				System.out.println(sum);
			}
		}`},
	{"UncaughtInInit", `class U { static int[] t = new int[2]; static int x = t[5];
		static void main() { System.out.println("unreached"); } }`},
	{"UncaughtWithMessage", `class Bad extends Exception { Bad(String m) { super(m); } }
		class M {
			static void f(int n) throws Bad { if (n > 3) { throw new Bad("deep " + n); } f(n + 1); }
			static void main() throws Bad { System.out.println("before"); f(0); System.out.println("after"); }
		}`},
	{"Library", `class L {
		static void main() {
			String s = "x" + 1 + 2L + 2.5 + true + 'c';
			System.out.println(s + " " + s.length() + " " + s.indexOf("2") + " " + s.hashCode());
			System.out.println(s.substring(1, 3).equals("12") + " " + s.compareTo("x1") + " " + Math.max(3, 9) + " " + Math.abs(-4L) + " " + Math.sqrt(2.0));
			Object o = s;
			System.out.println(o.equals(s) + " " + (o instanceof String));
			try { System.out.println(s.charAt(99)); } catch (IndexOutOfBoundsException e) { System.out.println("caught " + e.getMessage()); }
			String n = null;
			try { System.out.println(n.length()); } catch (NullPointerException e) { System.out.println("npe " + e.getMessage()); }
			int[][] grid = new int[3][4];
			grid[2][3] = 7;
			System.out.println(grid[2][3] + grid.length * grid[0].length);
			try { int[] neg = new int[grid[0][0] - 1]; } catch (NegativeArraySizeException e) { System.out.println("neg " + e.getMessage()); }
		}
	}`},
}

// vmPinCompute are the six compute guests the kill rows run.
var vmPinCompute = map[string]bool{
	"Linpack": true, "BitSieve": true,
	"guest/Dispatch": true, "guest/Except": true, "guest/ListWalk": true, "guest/Sort": true,
}

// vmPinKills are the budgets the compute guests are also run under: step
// budgets that end them at assorted points of their run, and allocation
// budgets that end them at their first allocations or in mid-run.
var vmPinKills = []rt.Budget{
	{MaxSteps: 1, MaxAlloc: 64 << 20},
	{MaxSteps: 777, MaxAlloc: 64 << 20},
	{MaxSteps: 123_457, MaxAlloc: 64 << 20},
	{MaxSteps: 1_000_003, MaxAlloc: 64 << 20},
	{MaxSteps: 50_000_000, MaxAlloc: 40},
	{MaxSteps: 50_000_000, MaxAlloc: 3_000},
	{MaxSteps: 50_000_000, MaxAlloc: 20_000},
}

// vmPinBudget is what every other row runs under: the repository
// benchmark's reference budget.
var vmPinBudget = rt.Budget{MaxSteps: 50_000_000, MaxAlloc: 64 << 20}

// TestBaselineVMPinned pins what the bytecode VM does, row by row: for
// every corpus unit, the four guests of benchmark/guests, the
// corpus.GenerateFuzz programs of the repository benchmark's three shapes
// for seeds 1 to 3, and the hand-written programs above, the SHA-256 of
// its output, its error text, and the steps and allocation units it
// charged; then the six compute guests again under budgets that kill them.
// The VM is the reference every workload's outputs are checked against,
// so a change to how it executes must leave every line where it was; the
// golden is regenerated (`go test -run TestBaselineVMPinned -update .`)
// only by a change that means to alter the VM's behaviour.
func TestBaselineVMPinned(t *testing.T) {
	type unit struct {
		name  string
		files map[string]string
	}
	var units []unit
	for _, u := range corpus.Units() {
		units = append(units, unit{u.Name, u.Files})
	}
	for _, name := range []string{"Dispatch", "Except", "ListWalk", "Sort"} {
		src, err := os.ReadFile(filepath.Join("benchmark", "guests", name+".tj"))
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{"guest/" + name, map[string]string{name + ".tj": string(src)}})
	}
	shapes := [][2]int{{3, 2}, {8, 5}, {20, 8}}
	for seed := 1; seed <= 3; seed++ {
		for idx := 0; idx < 9; idx++ {
			id := fmt.Sprintf("%d_%d", seed, idx)
			shape := shapes[idx%len(shapes)]
			units = append(units, unit{"Fz" + id, corpus.GenerateFuzz(id, shape[0], shape[1])})
		}
	}
	for _, g := range vmPinGuests {
		units = append(units, unit{"pin/" + g.name, map[string]string{g.name + ".tj": g.src}})
	}

	var sb strings.Builder
	for _, u := range units {
		prog, err := driver.Frontend(u.files)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		bc, err := bytecode.Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		sb.WriteString(vmPinRow(u.name, bc, vmPinBudget))
		if vmPinCompute[u.name] {
			for _, b := range vmPinKills {
				sb.WriteString(vmPinRow(u.name, bc, b))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "vm.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}

// vmPinRow links and runs bc's main under b and renders the outcome.
func vmPinRow(name string, bc *bytecode.Program, b rt.Budget) string {
	var out bytes.Buffer
	env := rt.NewEnv(&out, b, nil)
	vm, err := bytecode.NewVM(bc, env)
	if err == nil {
		err = vm.RunMain()
	}
	msg := "ok"
	if err != nil {
		msg = err.Error()
	}
	return fmt.Sprintf("%s steps<=%d alloc<=%d: out %x steps %d allocs %d: %s\n",
		name, b.MaxSteps, b.MaxAlloc, sha256.Sum256(out.Bytes()), env.Steps, env.Allocs, msg)
}
