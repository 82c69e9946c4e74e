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

func compileSrc(t *testing.T, src string) *interp.Snapshot {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	l, err := interp.LoadTrustedDeferred(mod, nil, nil, &rt.Env{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RunStaticInit(); err != nil {
		t.Fatalf("static init: %v", err)
	}
	snap, err := l.Snapshot(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatal(err)
	}
	return snap
}

const snapshotSrc = `
class Warm {
    static int[] table = Warm.build();
    static String banner = Warm.hello();
    static int[] build() {
        int[] t = new int[64];
        for (int i = 0; i < 64; i++) {
            t[i] = i * 3;
        }
        return t;
    }
    static String hello() {
        System.out.println("booting");
        return "ready";
    }
    static void main() {
        Warm.table[0] = Warm.table[0] + 1;
        System.out.println(Warm.banner + " " + Warm.table[0] + " " + Warm.table[63]);
    }
}`

// TestSnapshotReplaysInitObservables: a clone's env starts where a fresh
// post-init session's env would be — init output replayed, init budget
// drain pre-charged, and RunMain continuing from there.
func TestSnapshotReplaysInitObservables(t *testing.T) {
	snap := compileSrc(t, snapshotSrc)
	if snap.InitSteps() <= 0 || snap.InitAllocs() <= 0 {
		t.Fatalf("init drain (%d, %d), want both positive", snap.InitSteps(), snap.InitAllocs())
	}

	var out bytes.Buffer
	env := &rt.Env{Out: &out}
	l, err := snap.NewSession(env)
	if err != nil {
		t.Fatal(err)
	}
	if env.Steps != snap.InitSteps() || env.Allocs != snap.InitAllocs() {
		t.Errorf("clone env pre-charge (%d, %d) != init drain (%d, %d)",
			env.Steps, env.Allocs, snap.InitSteps(), snap.InitAllocs())
	}
	if !strings.HasPrefix(out.String(), "booting\n") {
		t.Errorf("init output not replayed: %q", out.String())
	}
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	// Fresh end-to-end session for comparison.
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": snapshotSrc})
	if err != nil {
		t.Fatal(err)
	}
	var fout bytes.Buffer
	fenv := &rt.Env{Out: &fout}
	fl, err := interp.LoadTrusted(mod, fenv)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != fout.String() {
		t.Errorf("clone output %q != fresh %q", out.String(), fout.String())
	}
	if env.Steps != fenv.Steps || env.Allocs != fenv.Allocs {
		t.Errorf("clone drain (%d, %d) != fresh (%d, %d)", env.Steps, env.Allocs, fenv.Steps, fenv.Allocs)
	}
	if l.HeapChecksum() != fl.HeapChecksum() {
		t.Error("post-main heaps diverge between clone and fresh session")
	}
}

// TestSnapshotClonesAreIsolated: one clone's main-time mutations must
// not leak into the snapshot or into sibling clones.
func TestSnapshotClonesAreIsolated(t *testing.T) {
	snap := compileSrc(t, snapshotSrc)
	frozen := snap.Checksum()

	run := func() string {
		var out bytes.Buffer
		l, err := snap.NewSession(&rt.Env{Out: &out})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.HeapChecksum(); got != frozen {
			t.Fatalf("pre-main clone heap %#x != frozen %#x", got, frozen)
		}
		if err := l.RunMain(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := run()
	second := run() // would print table[0]+2 if the first clone's store leaked
	if first != second {
		t.Errorf("sibling clones diverged: %q then %q", first, second)
	}
}

// TestSnapshotPreservesObjectIdentity: identity hashes minted during
// init survive cloning, and fresh allocations in a clone continue the
// id sequence exactly where a fresh session would — System.identity
// semantics cannot distinguish a clone from a fresh run.
func TestSnapshotPreservesObjectIdentity(t *testing.T) {
	src := `
class Node { int v; }
class Main {
    static Node a = new Node();
    static Node b = Main.a;
    static void main() {
        Node c = new Node();
        System.out.println(Main.a == Main.b);
        System.out.println(Main.a == c);
    }
}`
	snap := compileSrc(t, src)
	var out bytes.Buffer
	l, err := snap.NewSession(&rt.Env{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "true\nfalse\n" {
		t.Errorf("identity semantics diverged in clone: %q", got)
	}
}

// TestSnapshotAdmits pins the budget-admission rule: a snapshot admits
// exactly the budgets under which a fresh session would have survived
// static init (Step panics only when Steps exceeds MaxSteps, so
// equality admits).
func TestSnapshotAdmits(t *testing.T) {
	snap := compileSrc(t, snapshotSrc)
	steps, allocs := snap.InitSteps(), snap.InitAllocs()
	cases := []struct {
		name     string
		ms, ma   int64
		admitted bool
	}{
		{"unlimited", 0, 0, true},
		{"exactly the init drain", steps, allocs, true},
		{"ample", steps * 10, allocs * 10, true},
		{"steps one short", steps - 1, 0, false},
		{"allocs one short", 0, allocs - 1, false},
		{"steps unlimited, allocs short", 0, allocs / 2, false},
	}
	for _, c := range cases {
		if got := snap.Admits(rt.Budget{MaxSteps: c.ms, MaxAlloc: c.ma}); got != c.admitted {
			t.Errorf("%s: Admits(%d, %d) = %v, want %v", c.name, c.ms, c.ma, got, c.admitted)
		}
	}
}

// TestSnapshotDetachedFromBuilder: the builder session can keep running
// (main mutates its statics) after the snapshot is taken without
// perturbing what clones observe.
func TestSnapshotDetachedFromBuilder(t *testing.T) {
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": snapshotSrc})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	l, err := interp.LoadTrustedDeferred(mod, nil, nil, &rt.Env{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RunStaticInit(); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	frozen := snap.Checksum()
	if err := l.RunMain(); err != nil { // mutates the builder's statics
		t.Fatal(err)
	}
	cl, err := snap.NewSession(&rt.Env{Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.HeapChecksum(); got != frozen {
		t.Errorf("builder's post-snapshot main leaked into clones: %#x != %#x", got, frozen)
	}
}

// TestClonerPreservesAliasingAndCycles exercises rt.Cloner directly on
// an aliased, cyclic object graph threaded through statics.
func TestClonerPreservesAliasingAndCycles(t *testing.T) {
	src := `
class Node { Node next; int[] payload; }
class Main {
    static Node ring = Main.mk();
    static int[] shared = Main.ring.payload;
    static Node mk() {
        Node a = new Node();
        Node b = new Node();
        a.next = b;
        b.next = a;
        a.payload = new int[4];
        b.payload = a.payload;
        return a;
    }
    static void main() {
        Main.shared[0] = 9;
        System.out.println(Main.ring.next.payload[0]);
        System.out.println(Main.ring == Main.ring.next.next);
    }
}`
	snap := compileSrc(t, src)
	var out bytes.Buffer
	l, err := snap.NewSession(&rt.Env{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	// "9" proves shared/payload stayed one array; "true" proves the
	// two-node cycle closed on the cloned pair rather than unrolling.
	if got := out.String(); got != "9\ntrue\n" {
		t.Errorf("aliasing or cycle lost in clone: %q", got)
	}
}

// TestSnapshotBudgetKillsMatchFresh: a clone that exhausts its budget
// mid-main dies at exactly the same point, with the same drain, as a
// fresh session given the same budget.
func TestSnapshotBudgetKillsMatchFresh(t *testing.T) {
	src := `
class Main {
    static int[] warm = new int[128];
    static void main() {
        long s = 0L;
        int i = 0;
        while (i < 1000000000) {
            s = s + (i % 5);
            i = i + 1;
        }
        System.out.println(s);
    }
}`
	snap := compileSrc(t, src)
	budget := snap.InitSteps() + 5000
	if !snap.Admits(rt.Budget{MaxSteps: budget}) {
		t.Fatal("test budget does not admit the snapshot")
	}

	var cout bytes.Buffer
	cenv := &rt.Env{Out: &cout, MaxSteps: budget}
	cl, err := snap.NewSession(cenv)
	if err != nil {
		t.Fatal(err)
	}
	cerr := cl.RunMain()

	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	var fout bytes.Buffer
	fenv := &rt.Env{Out: &fout, MaxSteps: budget}
	fl, err := interp.LoadTrusted(mod, fenv)
	if err != nil {
		t.Fatal(err)
	}
	ferr := fl.RunMain()

	if !errors.Is(cerr, rt.ErrStepLimit) || !errors.Is(ferr, rt.ErrStepLimit) {
		t.Fatalf("expected step kills, got clone %v, fresh %v", cerr, ferr)
	}
	if cenv.Steps != fenv.Steps || cenv.Allocs != fenv.Allocs {
		t.Errorf("kill-point drain diverges: clone (%d, %d), fresh (%d, %d)",
			cenv.Steps, cenv.Allocs, fenv.Steps, fenv.Allocs)
	}
	if cl.HeapChecksum() != fl.HeapChecksum() {
		t.Error("kill-point heaps diverge between clone and fresh session")
	}
}

// TestVerifiedSnapshotClonesMatchFresh: Verify releases its probe clone
// once it has compared it, so the probe's chunks and frames go to the
// sessions after it — here poisoned first (core.PoisonRecycled), so a
// snapshot or a clone that kept anything of the probe reads junk. Each
// snapshot is verified twice, the second probe carved from what the first
// left, and every clone, released in turn, must answer what a fresh
// session does: output, steps and allocations.
func TestVerifiedSnapshotClonesMatchFresh(t *testing.T) {
	core.PoisonRecycled(true)
	t.Cleanup(func() { core.PoisonRecycled(false) })
	chain := `
class Node {
    String name;
    Node next;
    Node(String n, Node x) { name = n; next = x; }
}
class Main {
    static Node chain = Main.build();
    static Node build() {
        Node n = null;
        for (int i = 0; i < 40; i++) {
            n = new Node("n" + i, n);
        }
        return n;
    }
    static void main() {
        int sum = 0;
        for (Node c = Main.chain; c != null; c = c.next) {
            sum = sum + c.name.length();
        }
        System.out.println(Main.chain.name + " " + sum);
        Main.chain = new Node("mutated", null);
    }
}`
	for name, src := range map[string]string{"Warm": snapshotSrc, "Chain": chain} {
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
		if err != nil {
			t.Fatal(err)
		}
		var fout bytes.Buffer
		fenv := &rt.Env{Out: &fout}
		fl, err := interp.LoadTrusted(mod, fenv)
		if err == nil {
			err = fl.RunMain()
		}
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}

		snap := compileSrc(t, src)
		if err := snap.Verify(); err != nil {
			t.Fatalf("%s: second verify: %v", name, err)
		}
		for i := range 3 {
			var out bytes.Buffer
			env := &rt.Env{Out: &out}
			l, err := snap.NewSession(env)
			if err == nil {
				err = l.RunMain()
			}
			if err != nil {
				t.Fatalf("%s clone %d: %v", name, i, err)
			}
			if out.String() != fout.String() || env.Steps != fenv.Steps || env.Allocs != fenv.Allocs {
				t.Errorf("%s clone %d: %q in (%d, %d), fresh %q in (%d, %d)",
					name, i, out.String(), env.Steps, env.Allocs, fout.String(), fenv.Steps, fenv.Allocs)
			}
			l.Release()
		}
	}
}
