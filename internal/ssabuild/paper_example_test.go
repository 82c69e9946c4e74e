package ssabuild_test

import (
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
)

// TestPaperFigure4Shape checks the worked example of Figures 1-4: the
// fragment `if (i > 0) j = j*i+1; else j = -i*2; i = j*3;` must build
// into exactly the type-separated reference-safe shape the paper draws —
// four blocks (entry, then, else, join), one int phi at the join whose
// (l, r) operands both name register 1 of the respective arm's int plane,
// and arm instructions referencing the parameters with l = 1.
func TestPaperFigure4Shape(t *testing.T) {
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static int figure1(int i, int j) {
        if (i > 0) {
            j = j * i + 1;
        } else {
            j = -i * 2;
        }
        i = j * 3;
        return i;
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	f := funcNamed(mod, "figure1")
	if f == nil {
		t.Fatal("figure1 not built")
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("want 4 blocks (entry, then, else, join), have %d", len(f.Blocks))
	}
	entry, thenB, elseB, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]

	if thenB.IDom != entry || elseB.IDom != entry || join.IDom != entry {
		t.Error("dominator tree must be flat under the entry")
	}
	if len(join.Preds) != 2 || join.Preds[0].From != thenB || join.Preds[1].From != elseB {
		t.Error("join predecessors wrong")
	}
	if len(join.Phis) != 1 {
		t.Fatalf("join must hold exactly one phi (for j), has %d", len(join.Phis))
	}
	phi := join.Phis[0]
	if phi.Type != mod.Types.Int {
		t.Error("the phi must live on the int plane")
	}

	// The paper's Figure 4 shows the phi operands as (0-1)(0-1): register
	// 1 of each arm's int plane.
	planeIdx := f.PlaneIndex()
	for k, arg := range phi.Args {
		r := f.EncodeRef(join.Preds[k].From, arg, planeIdx)
		if r.L != 0 || r.R != 1 {
			t.Errorf("phi operand %d encodes as (%d-%d), Figure 4 shows (0-1)", k, r.L, r.R)
		}
	}

	// j*i in the then-arm reads both parameters from the entry plane
	// one dominator level up.
	mul := thenB.Code[0]
	if mul.Op != core.OpPrim || mul.Prim != core.PIMul {
		t.Fatalf("then-arm must start with int.mul, has %s", mul.Op)
	}
	for _, a := range mul.Args {
		r := f.EncodeRef(thenB, a, planeIdx)
		if r.L != 1 {
			t.Errorf("parameter reference from the arm must climb one level, got l=%d", r.L)
		}
	}

	// i = j*3 after the join consumes the phi: register 0 of the join's
	// int plane.
	mul3 := join.Code[0]
	r := f.EncodeRef(join, mul3.Args[0], planeIdx)
	if r.L != 0 || r.R != 0 {
		t.Errorf("use of the phi encodes as (%d-%d), want (0-0)", r.L, r.R)
	}
}

// TestAppendixBLoop builds the Appendix B fragment (a while loop over an
// array element access) and checks the loop structure: header phis and a
// safe-index plane bound to the checked array value.
func TestAppendixBLoop(t *testing.T) {
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static int sum(int[] a, int n) {
        int s = 0;
        int i = 0;
        while (i < n) {
            s = s + a[i];
            i = i + 1;
        }
        return s;
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	f := funcNamed(mod, "sum")
	header := f.Body.Kids[1]
	if header.Kind != core.CWhile {
		t.Fatalf("second CST node is %v, want while", header.Kind)
	}
	h := header.Block
	if len(h.Phis) != 2 {
		t.Fatalf("loop header must carry phis for s and i, has %d", len(h.Phis))
	}
	for _, phi := range h.Phis {
		if len(phi.Args) != 2 {
			t.Errorf("header phi arity %d, want 2 (entry + back edge)", len(phi.Args))
		}
	}

	// Find the element access inside the body and check Appendix A's
	// binding: the getelt index value is an indexcheck bound to the
	// same array value the getelt reads from.
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Op != core.OpGetElt {
				continue
			}
			found = true
			idx := f.Value(in.Args[1])
			if idx.Op != core.OpIndexCheck {
				t.Fatalf("getelt index produced by %s", idx.Op)
			}
			if idx.Bind != in.Args[0] {
				t.Error("safe-index plane not bound to the accessed array value")
			}
		}
	}
	if !found {
		t.Fatal("no getelt generated")
	}
}

// TestStructuralDominatorsSoundOnCorpus re-checks, for every function of
// every corpus unit (optimized and not), that the structural dominator
// tree is sound against the true flow graph — the property that makes
// every (l, r) reference referentially secure.
func TestStructuralDominatorsSoundOnCorpus(t *testing.T) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		for _, f := range mod.Funcs {
			if err := mod.CheckStructuralDominators(f); err != nil {
				t.Errorf("%s: %v", u.Name, err)
			}
		}
		if _, err := driver.OptimizeModule(mod); err != nil {
			t.Fatalf("%s: optimize: %v", u.Name, err)
		}
		for _, f := range mod.Funcs {
			if err := mod.CheckStructuralDominators(f); err != nil {
				t.Errorf("%s (optimized): %v", u.Name, err)
			}
		}
	}
}

// TestConstantsPreloadedInEntry checks section 5's pre-loading: every
// constant of a function is materialized in the initial basic block.
func TestConstantsPreloadedInEntry(t *testing.T) {
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": `
class Main {
    static int f(boolean b) {
        if (b) { return 10; }
        while (!b) { return 20; }
        return 30;
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mod.Funcs {
		for bi, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op == core.OpConst && bi != 0 {
					t.Errorf("%s: constant %s outside the initial block", mod.FuncName(f), in.Const)
				}
			}
		}
	}
}

// funcNamed is the last body of mod whose name (Module.FuncName, derived
// from its claim) contains member, or nil.
func funcNamed(mod *core.Module, member string) *core.Func {
	var f *core.Func
	for _, cand := range mod.Funcs {
		if strings.Contains(mod.FuncName(cand), member) {
			f = cand
		}
	}
	return f
}
