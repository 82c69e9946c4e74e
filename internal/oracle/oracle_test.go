package oracle

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

const oracleProbe = `
class Main {
    static int f(int a, int b) {
        int c = a * b + 7;
        int d = c - a;
        return c + d;
    }
    static void main() {
        int acc = 0;
        for (int i = 1; i < 10; i++) {
            acc += f(i, i + 2);
        }
        System.out.println(acc);
    }
}`

func compileProbe(t *testing.T) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": oracleProbe})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod
}

// corruptFunc emulates an optimizer bug: it deletes the first
// instruction whose SSA result is still consumed by a later instruction
// in the same block, leaving a dangling operand reference.
func corruptFunc(f *core.Func) bool {
	for _, b := range f.Blocks {
		used := map[core.ValueID]bool{}
		for _, in := range b.Code {
			for _, a := range in.Args {
				used[a] = true
			}
		}
		for i, in := range b.Code {
			if in.HasResult() && used[in.ID] {
				b.Code = append(b.Code[:i], b.Code[i+1:]...)
				return true
			}
		}
	}
	return false
}

// TestPerPassOracleCatchesMisoptimization injects a deliberately broken
// pass into the middle of the pipeline and asserts the per-pass verifier
// oracle rejects the module and names the guilty pass — the module-level
// (-O end-to-end) check alone could attribute the damage to a later
// pass, or miss it entirely if a subsequent pass deleted the evidence.
func TestPerPassOracleCatchesMisoptimization(t *testing.T) {
	mod := compileProbe(t)
	if _, err := OptimizePerPass(mod); err != nil {
		t.Fatalf("honest pipeline must verify after every pass: %v", err)
	}

	mod = compileProbe(t)
	corrupted := false
	evil := opt.Pass{Name: "evil-dce", Run: func(m *core.Module, f *core.Func, o opt.Options, st *opt.Stats) {
		if !corrupted {
			corrupted = corruptFunc(f)
		}
	}}
	passes := opt.Pipeline()
	// Splice the broken pass after the first honest pass.
	passes = append(passes[:1], append([]opt.Pass{evil}, passes[1:]...)...)
	_, err := RunPassesVerified(mod, passes)
	if !corrupted {
		t.Fatal("probe program left nothing for the evil pass to corrupt")
	}
	if err == nil {
		t.Fatal("per-pass oracle accepted a mis-optimized module")
	}
	if !strings.Contains(err.Error(), `after pass "evil-dce"`) {
		t.Fatalf("oracle blamed the wrong pass: %v", err)
	}
}

// excProbe has a handler phi fed by several can-throw sites and a throw
// node, all inside one try.
const excProbe = `
class Main {
    static int f(int a, int[] arr, int i) {
        int x = 1;
        try {
            x = a / 2;
            x = x + arr[i];
            if (x > 50) { throw new Exception("big"); }
        } catch (Exception e) { return x + 100; }
        return x;
    }
    static void main() {
        int[] arr = new int[3];
        System.out.println(f(7, arr, 1));
        System.out.println(f(7, arr, 5));
        System.out.println(f(200, arr, 0));
    }
}`

func compileExcProbe(t *testing.T) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": excProbe})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod
}

// pruneSite emulates an optimizer bug: it drops the exception edge of the
// first try-covered site whose handler keeps another, and keeps the site.
// No wire form carries such a module: a decoder gives the site its edge
// back.
func pruneSite(f *core.Func) bool {
	pruned := false
	f.ExcSites(func(s core.ExcSite) {
		if !pruned && s.Pred.Site != nil && len(s.Handler.Preds) > 1 {
			f.RemoveExcSite(s.Pred.Site)
			pruned = true
		}
	}, func(*core.Block, int) {})
	return pruned
}

// TestPrunedExceptionEdgeIsRefused: a pass that prunes a kept site's
// exception edge is blamed by name by the per-pass oracle, Verify refuses
// its output, and the driver refuses to ship it, as a fault of the
// producer's own.
func TestPrunedExceptionEdgeIsRefused(t *testing.T) {
	pruned := 0
	evil := opt.Pass{Name: "evil-prune", Run: func(m *core.Module, f *core.Func, o opt.Options, st *opt.Stats) {
		if pruneSite(f) {
			pruned++
		}
	}}
	mod := compileExcProbe(t)
	passes := opt.ModulePipeline()
	passes = append(passes[:1], append([]opt.Pass{evil}, passes[1:]...)...)
	_, err := RunPassesVerifiedOptions(mod, opt.Options{ModuleLevel: true}, passes)
	if pruned == 0 {
		t.Fatal("probe program left no site for the evil pass to prune")
	}
	if err == nil || !strings.Contains(err.Error(), `after pass "evil-prune"`) {
		t.Fatalf("oracle did not blame the pruning pass: %v", err)
	}

	mod = compileExcProbe(t)
	if _, err := opt.RunPasses(mod, opt.Options{}, []opt.Pass{evil}, nil); err != nil {
		t.Fatal(err)
	}
	if err := mod.Verify(core.VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "exception edge") {
		t.Fatalf("Verify answered %v for the pruned module, want the exception-edge rule's refusal", err)
	}
	_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
	if err == nil {
		t.Fatal("driver shipped a module whose exception edges its CST does not imply")
	}
	if driver.IsUserError(err) {
		t.Errorf("the producer's own fault is reported as the program's: %v", err)
	}
}

// firstTry returns the sites of f's first try that holds any, or nil.
func firstTry(f *core.Func) []core.ExcSite {
	var sites []core.ExcSite
	f.ExcSites(func(s core.ExcSite) {
		if len(sites) == 0 || s.Handler == sites[0].Handler {
			sites = append(sites, s)
		}
	}, func(*core.Block, int) {})
	return sites
}

// removeEdge drops edge k of handler h, with its phi operands.
func removeEdge(h *core.Block, k int) {
	h.Preds = slices.Delete(h.Preds, k, k+1)
	for _, phi := range h.Phis {
		phi.Args = slices.Delete(phi.Args, k, k+1)
	}
}

// TestCheckExcSites: Verify holds a body's exception edges to the ones its
// CST implies. It accepts what the front end builds and refuses a
// can-throw instruction or a throw node inside a try whose edge is not the
// next edge of its innermost handler, and a handler with an edge no site
// accounts for.
func TestCheckExcSites(t *testing.T) {
	if err := compileExcProbe(t).Verify(core.VerifyOptions{}); err != nil {
		t.Fatalf("front-end module refused: %v", err)
	}
	for name, tamper := range map[string]func(f *core.Func) bool{
		"pruned instruction": pruneSite,
		// Two instructions' edges trade places; the phi operands stay.
		"swapped instructions": func(f *core.Func) bool {
			sites := firstTry(f)
			if len(sites) < 2 || sites[0].Pred.Site == nil || sites[1].Pred.Site == nil {
				return false
			}
			p := sites[0].Handler.Preds
			p[sites[0].Edge], p[sites[1].Edge] = p[sites[1].Edge], p[sites[0].Edge]
			return true
		},
		"stale edge": func(f *core.Func) bool {
			sites := firstTry(f)
			if len(sites) == 0 {
				return false
			}
			h := sites[0].Handler
			h.Preds = append(h.Preds, h.Preds[0])
			return true
		},
		// A throw inside a try loses its edge, with the phi operands.
		"throw": func(f *core.Func) bool {
			done := false
			f.ExcSites(func(s core.ExcSite) {
				if !done && s.Pred.Site == nil {
					removeEdge(s.Handler, s.Edge)
					done = true
				}
			}, func(*core.Block, int) {})
			return done
		},
	} {
		mod, tampered := compileExcProbe(t), false
		for _, f := range mod.Funcs {
			if tamper(f) {
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatalf("%s: probe program has no site to tamper with", name)
		}
		if err := mod.Verify(core.VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "exception edge") {
			t.Errorf("%s: Verify answered %v, want the exception-edge rule's refusal", name, err)
		}
	}
}

// TestVerifyRefusesAStrayExceptionEdge: admission's exception-edge rules
// hold producer output to what the wire can say — an exception edge
// leaves a potentially-throwing instruction of its source block, which
// takes it as the next edge of its innermost handler. Neither module below
// has a wire spelling.
func TestVerifyRefusesAStrayExceptionEdge(t *testing.T) {
	if err := compileExcProbe(t).Verify(core.VerifyOptions{}); err != nil {
		t.Fatalf("front-end module refused: %v", err)
	}
	for name, tamper := range map[string]func(f *core.Func) bool{
		// The edge stays, its site is one no block holds.
		"unregistered site": func(f *core.Func) bool {
			for _, s := range firstTry(f) {
				if in := s.Pred.Site; in != nil {
					stray := *in
					s.Handler.Preds[s.Edge].Site = &stray
					return true
				}
			}
			return false
		},
		// The edge moves to an instruction of the same block that cannot
		// throw.
		"site that cannot throw": func(f *core.Func) bool {
			for _, s := range firstTry(f) {
				if s.Pred.Site == nil {
					continue
				}
				for _, c := range s.Pred.From.Code {
					if !c.Op.CanThrow() {
						s.Handler.Preds[s.Edge].Site = c
						return true
					}
				}
			}
			return false
		},
	} {
		mod, tampered := compileExcProbe(t), false
		for _, f := range mod.Funcs {
			if tamper(f) {
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatalf("%s: probe program has no site to tamper with", name)
		}
		if err := mod.Verify(core.VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "exception edge") {
			t.Errorf("%s: Verify answered %v, want the exception-edge rule's refusal", name, err)
		}
	}
}

func TestCanonicalWireOnCorpus(t *testing.T) {
	for _, seed := range []string{"0", "1", "2", "canon"} {
		files := corpus.GenerateFuzz(seed, 5, 4)
		mod, err := driver.CompileTSASource(files)
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if err := CheckCanonicalWire(mod); err != nil {
			t.Errorf("seed %s unoptimized: %v", seed, err)
		}
		if _, err := OptimizePerPass(mod); err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if err := CheckCanonicalWire(mod); err != nil {
			t.Errorf("seed %s optimized: %v", seed, err)
		}
	}
}

// TestCanonicalWireV2OnCorpus: every corpus unit re-encodes to its own
// v1 and v2 bytes and decodes to its own structure, on v2 without a
// dictionary and with one trained over the corpus — the string table,
// the opcode contexts and the decision counts adapt in lockstep on both
// sides. The O2 row holds the modules the producer ships at its
// interprocedural tier to the same.
func TestCanonicalWireV2OnCorpus(t *testing.T) {
	for _, tier := range []struct {
		name string
		o2   bool
	}{{"O0", false}, {"O2", true}} {
		var mods []*core.Module
		for _, u := range corpus.Units() {
			mod, err := driver.CompileTSASource(u.Files)
			if err == nil && tier.o2 {
				_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
			}
			if err != nil {
				t.Fatalf("%s %s: %v", u.Name, tier.name, err)
			}
			mods = append(mods, mod)
		}
		dict := wire.TrainDictionary(mods)
		for i, u := range corpus.Units() {
			for _, d := range []*wire.Dictionary{nil, dict} {
				if err := CheckCanonicalWireV2(mods[i], d); err != nil {
					t.Errorf("%s %s (dictionary %v): %v", u.Name, tier.name, d != nil, err)
				}
			}
			if err := CheckCanonicalWire(mods[i]); err != nil {
				t.Errorf("%s %s v1: %v", u.Name, tier.name, err)
			}
		}
	}
}

// TestCheckWireTamper drives the CheckWire oracle over systematically
// tampered encodings of a real unit: every outcome must be a clean
// rejection or a verifier-clean, budget-bounded execution — CheckWire
// returning an error (or panicking) is the bug the fuzz target hunts.
func TestCheckWireTamper(t *testing.T) {
	mod := compileProbe(t)
	data := wire.EncodeModule(mod)
	b := Budgets{MaxSteps: 1 << 16, MaxAlloc: 1 << 18}
	if err := CheckWire(data, b); err != nil {
		t.Fatalf("pristine unit: %v", err)
	}
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if err := CheckWire(mut, b); err != nil {
				t.Fatalf("tampered byte %d bit %d: %v", i, bit, err)
			}
		}
	}
}

// TestAllocBudgetStopsHostileGrowth checks the defense CheckWire relies
// on: a guest that doubles a string every iteration (2^60 bytes' worth)
// must die on the allocation budget, not take the host down with it.
func TestAllocBudgetStopsHostileGrowth(t *testing.T) {
	src := `
class Main {
    static void main() {
        String s = "xxxxxxxxxxxxxxxx";
        for (int i = 0; i < 60; i++) {
            s = s + s;
        }
        System.out.println(s.length());
    }
}`
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runBounded(mod, Budgets{MaxSteps: 1 << 20, MaxAlloc: 1 << 20})
	if !errors.Is(err, rt.ErrAllocLimit) {
		t.Fatalf("hostile growth ended with %v, want ErrAllocLimit", err)
	}
}

func TestCheckFrontendOnGarbage(t *testing.T) {
	for _, src := range []string{
		"", "class", "class Main { static void main() { int x = ; } }",
		"\x80\x80\x80", "/* unterminated", `class A { A a = new A(`,
	} {
		if err := CheckFrontend([]byte(src)); err != nil {
			t.Errorf("CheckFrontend(%q) = %v", src, err)
		}
	}
}
