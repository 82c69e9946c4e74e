package driver

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// wideRoot is a TJ source of one class of methods methods over a chain of
// depth empty subclasses.
func wideRoot(methods, depth int) string {
	var b strings.Builder
	b.WriteString("class C0 {\n")
	for i := range methods {
		fmt.Fprintf(&b, "    int m%d() { return %d; }\n", i, i)
	}
	b.WriteString("    static void main() { }\n}\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "class C%d extends C%d { }\n", i, i-1)
	}
	return b.String()
}

// TestFrontendBytesBoundedBySource: the front end allocates in proportion
// to its source, not to the dispatch tables its classes would have. A
// 2 000-method root over a chain of 1 000 empty subclasses is held to
// 64 host bytes per source byte; a front end that builds each class's
// dispatch table, or walks each class's ancestors with a map of its own,
// takes several hundred. The least of three runs is read, so that
// another goroutine's allocation does not count.
func TestFrontendBytesBoundedBySource(t *testing.T) {
	src := wideRoot(2000, 1000)
	files := map[string]string{"W.tj": src}
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Frontend(files); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perByte := float64(least) / float64(len(src))
	t.Logf("%d B of source, %d B allocated: %.1f B per byte", len(src), least, perByte)
	if perByte > 64 {
		t.Errorf("the front end allocated %.1f B per source byte, over 64", perByte)
	}
}

// overrideChain is a TJ source of a chain of depth classes under C0, each
// overriding C0's one virtual method, whose main calls it on the last.
func overrideChain(depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class C0 {\n    int m() { return 0; }\n")
	fmt.Fprintf(&b, "    static void main() { C0 x = new C%d(); System.out.println(x.m()); }\n}\n", depth)
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "class C%d extends C%d { int m() { return %d; } }\n", i, i-1, i)
	}
	return b.String()
}

// TestOverrideChainCompiles: a chain of 3 000 classes that each override
// one method is a valid program whose dispatch tables hold four entries
// each. The front end and admission search the superclasses of each
// override in steps proportional to the program, so it compiles, decodes
// through DecodeVerified and runs.
func TestOverrideChainCompiles(t *testing.T) {
	const depth = 3000
	mod, err := CompileTSASource(map[string]string{"O.tj": overrideChain(depth)})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.DecodeVerified(wire.EncodeModuleV2(mod, nil))
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunModule(dec, 1_000_000)
	if err != nil || out != fmt.Sprintln(depth) {
		t.Fatalf("ran %q, %v; want %d", out, err, depth)
	}
}

// dispatchChain is a TJ source of a chain of depth classes under C0, each
// overriding m() and dispatching x.m() from k(C0 x). main makes a C0 and
// the last class, so no dispatch is monomorphic and O2 keeps every site.
func dispatchChain(depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class C0 {\n    int m() { return 0; }\n    int k(C0 x) { return x.m(); }\n")
	fmt.Fprintf(&b, "    static void main() { C0 a = new C0(); C0 z = new C%d(); System.out.println(a.k(z) + z.k(a)); }\n}\n", depth)
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "class C%d extends C%d { int m() { return %d; } int k(C0 x) { return x.m() + %d; } }\n", i, i-1, i, i)
	}
	return b.String()
}

// TestDispatchChainCallGraphIsLinear: each of the 2 000 classes' k
// dispatches m, which any of the 2 001 overrides can answer. The call graph
// gives a dispatched method one node whose successors are its overrides, so
// it holds a few edges per class where one edge per site and override held
// depth², four million; the build (which orders the bodies by it) and O2
// (whose inliner asks it for the recursive functions) stay linear: 0.24 s
// on a 2-CPU container, where the graph of one edge per site and override
// took 3.2 s.
func TestDispatchChainCallGraphIsLinear(t *testing.T) {
	const depth = 2000
	start := time.Now()
	mod, err := CompileTSASource(map[string]string{"D.tj": dispatchChain(depth)})
	if err == nil {
		_, err = OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	g := mod.CallGraph()
	edges := 0
	for n := range g.Nodes() {
		edges += len(g.Succ(int32(n)))
	}
	t.Logf("%d bodies, %d nodes, %d edges; compiled and optimized in %v", g.Bodies, g.Nodes(), edges, took)
	if g.Nodes() > g.Bodies+2 || edges > 5*depth {
		t.Errorf("the call graph has %d nodes over %d bodies and %d edges; want at most 2 dispatched methods and %d edges",
			g.Nodes(), g.Bodies, edges, 5*depth)
	}
	if took > 10*time.Second {
		t.Errorf("compiling and optimizing a %d-class dispatch chain took %v", depth, took)
	}
}
