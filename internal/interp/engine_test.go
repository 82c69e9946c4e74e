package interp_test

import (
	"bytes"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
)

// sessionResult is everything a guest session can observe or be
// observed by: printed bytes, the Go-level error, drained budget
// counters, and the final reachable-heap checksum.
type sessionResult struct {
	out    string
	err    error
	steps  int64
	allocs int64
	heap   uint64
}

// engineLazy is the compiled engine over a form of its own that starts
// empty and is filled as the session first calls each function: the form
// a cold /run session starts from.
const engineLazy = "lazy"

// runSession executes mod once on the requested engine with the given
// budgets. prep and comp are reused across sessions (they are
// immutable), matching how the codeserver shares one prepared/compiled
// form among all /run sessions.
func runSession(t *testing.T, mod *core.Module, prep *interp.Prepared, comp *interp.Compiled, engine string, maxSteps, maxAlloc int64) sessionResult {
	t.Helper()
	var out bytes.Buffer
	env := &rt.Env{Out: &out, MaxSteps: maxSteps, MaxAlloc: maxAlloc}
	var l *interp.Loader
	var err error
	switch engine {
	case driver.EnginePrepared:
		l, err = interp.LoadTrustedPrepared(mod, prep, env)
	case driver.EngineCompiled:
		l, err = interp.LoadTrustedCompiled(mod, comp, env)
	case engineLazy:
		l, err = interp.LoadTrustedCompiled(mod, interp.Lazy(mod), env)
	default:
		l, err = interp.LoadTrusted(mod, env)
	}
	res := sessionResult{steps: env.Steps, allocs: env.Allocs}
	if err != nil {
		res.err = err
		res.out = out.String()
		res.steps, res.allocs = env.Steps, env.Allocs
		if l != nil {
			res.heap = l.HeapChecksum()
		}
		return res
	}
	res.err = l.RunMain()
	res.out = out.String()
	res.steps, res.allocs = env.Steps, env.Allocs
	res.heap = l.HeapChecksum()
	return res
}

// compareSessions asserts full observable equality between a reference
// session and a session on the named engine: output bytes, error text,
// cumulative step and alloc budget drain, and the final heap checksum.
func compareSessions(t *testing.T, engine string, ref, got sessionResult) {
	t.Helper()
	if ref.out != got.out {
		t.Errorf("output diverged:\nreference: %q\n%s: %q", ref.out, engine, got.out)
	}
	refErr, gotErr := "", ""
	if ref.err != nil {
		refErr = ref.err.Error()
	}
	if got.err != nil {
		gotErr = got.err.Error()
	}
	if refErr != gotErr {
		t.Errorf("error diverged:\nreference: %q\n%s: %q", refErr, engine, gotErr)
	}
	if ref.err != nil {
		if rk, gk := rt.KillReason(ref.err), rt.KillReason(got.err); rk != gk {
			t.Errorf("kill reason diverged: reference %q, %s %q", rk, engine, gk)
		}
	}
	if ref.steps != got.steps {
		t.Errorf("step drain diverged: reference %d, %s %d", ref.steps, engine, got.steps)
	}
	if ref.allocs != got.allocs {
		t.Errorf("alloc drain diverged: reference %d, %s %d", ref.allocs, engine, got.allocs)
	}
	if ref.heap != got.heap {
		t.Errorf("heap checksum diverged: reference %#x, %s %#x", ref.heap, engine, got.heap)
	}
}

// excStormSrc is a dedicated exception-heavy row for the three-way
// differential: every trap kind the runtime can raise (arithmetic,
// bounds, null, explicit throw), caught at varying depths, plus
// rethrow across recursive frames — so the exception-edge phi moves and
// the paths that hand a callee's exception to its call site's handler
// are compared on every engine under full budgets and under mid-run
// kills.
const excStormSrc = `
class ExcStorm {
    int depth;

    ExcStorm(int d) { depth = d; }

    static int divTrap(int a, int b) {
        try {
            return a / b;
        } catch (ArithmeticException e) {
            return a - b;
        }
    }

    static int deep(int n) {
        if (n == 0) { throw new Exception("bottom"); }
        try {
            return deep(n - 1);
        } catch (Exception e) {
            if (n % 3 == 0) { throw new Exception("re" + n); }
            return n;
        }
    }

    static int bounds(int[] a, int i) {
        try {
            return a[i];
        } catch (IndexOutOfBoundsException e) {
            return -1;
        }
    }

    static int nullTrap(ExcStorm s) {
        try {
            return s.depth;
        } catch (NullPointerException e) {
            return -7;
        }
    }

    static void main() {
        int acc = 0;
        for (int i = 0; i < 200; i++) {
            acc += divTrap(1000 + i, i % 7);
            try {
                acc += deep(i % 13);
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
            int[] arr = new int[8];
            arr[i % 8] = i;
            acc += bounds(arr, i % 11);
            ExcStorm s = null;
            if (i % 2 == 0) { s = new ExcStorm(i); }
            acc += nullTrap(s);
            try {
                if (i % 5 == 0) { throw new Exception("x" + i); }
                acc += 3;
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
        }
        System.out.println(acc);
    }
}
`

// excDieSrc terminates main with an uncaught exception after real work,
// so the engines are also compared on the unwind-out-of-main path: the
// error text, the budget drained before the throw, and the heap left
// behind must all match.
const excDieSrc = `
class ExcDie {
    static int burn(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            try {
                if (i % 3 == 1) { throw new Exception("t" + i); }
                acc += i;
            } catch (Exception e) {
                acc -= 1;
            }
        }
        return acc;
    }

    static void main() {
        System.out.println(burn(100));
        throw new Exception("unhandled " + burn(50));
    }
}
`

// excNativeSrc raises from the two natives that can throw (charAt,
// substring) with frames that have no handler between the native and
// the catch, so the exception has to cross guest frames it did not
// originate in: caught two frames up, passing a finally on the way,
// rethrown through two frames, and a thrown null. An engine that
// unwinds guest frames and natives by different mechanisms delivers
// these to the wrong place.
const excNativeSrc = `
class ExcNative {
    static int log;

    static char deep(String s, int i) { return s.charAt(i); }
    static char mid(String s, int i) { return deep(s, i); }

    static String cut(String s, int a, int b) {
        try {
            return s.substring(a, b);
        } finally {
            log = log + 1;
        }
    }

    static int rethrow(String s, int i) {
        try {
            return mid(s, i);
        } catch (IndexOutOfBoundsException e) {
            throw new Exception("again " + e.getMessage());
        }
    }
    static int relay(String s, int i) { return rethrow(s, i) + 1; }

    static void main() {
        int acc = 0;
        for (int i = 0; i < 12; i++) {
            try {
                acc += mid("abc", i % 5);
            } catch (IndexOutOfBoundsException e) {
                acc += e.getMessage().length();
            }
            try {
                acc += cut("abcdef", i % 4, 9 - i).length();
            } catch (IndexOutOfBoundsException e) {
                acc += 100;
            }
            try {
                acc += relay("xy", i % 3);
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
            try {
                Exception none = null;
                if (i % 6 == 5) { throw none; }
            } catch (NullPointerException e) {
                acc += 1000;
            }
        }
        System.out.println(acc);
        System.out.println(log);
    }
}
`

// excNativeDieSrc dies of a native-raised exception no frame catches:
// substring out of range, two guest frames below main.
const excNativeDieSrc = `
class ExcNativeDie {
    static String cut(String s, int n) { return s.substring(1, n); }
    static String twice(String s, int n) { return cut(s, n) + cut(s, n + 2); }

    static void main() {
        System.out.println(twice("abcdef", 3));
        System.out.println(twice("abc", 2));
    }
}
`

// excInitDieSrc dies in a static initializer: the first class's
// initializer prints, the second's catches a few exceptions and then
// throws one no frame catches, and the third's would print. The session
// ends with the second's exception, and nothing after it runs — neither
// the third initializer nor main.
const excInitDieSrc = `
class InitFirst {
    static int a = InitFirst.boot();
    static int boot() { System.out.println("first"); return 1; }
    static void main() { System.out.println("main"); }
}

class InitSecond {
    static int b = InitSecond.boot();
    static int boot() {
        int acc = 0;
        for (int i = 0; i < 4; i++) {
            try {
                if (i % 2 == 0) { throw new Exception("caught " + i); }
                acc += 10 / (i - 1);
            } catch (ArithmeticException e) {
                acc += 100;
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
        }
        System.out.println(acc);
        throw new Exception("second " + acc);
    }
}

class InitThird {
    static int c = InitThird.boot();
    static int boot() { System.out.println("third"); return 3; }
}
`

// TestEngineParityExceptionHeavy is the satellite coverage for the
// exception-heavy rows: both programs above run on all three engines
// under a full budget, a step budget at half the real drain, and an
// alloc budget at half the real drain, with every observable compared
// byte-exactly (output, error text, kill reason, budget drain, heap
// checksum).
func TestEngineParityExceptionHeavy(t *testing.T) {
	cases := []struct {
		name, file, src string
		wantErr         bool
	}{
		{"ExcStorm", "ExcStorm.tj", excStormSrc, false},
		{"ExcDie", "ExcDie.tj", excDieSrc, true},
		{"ExcNative", "ExcNative.tj", excNativeSrc, false},
		{"ExcNativeDie", "ExcNativeDie.tj", excNativeDieSrc, true},
		{"ExcInitDie", "ExcInitDie.tj", excInitDieSrc, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{c.file: c.src})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			prep, err := interp.Prepare(mod)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			comp, err := interp.Compile(mod, prep)
			if err != nil {
				t.Fatalf("compile backend: %v", err)
			}

			const full = 50_000_000
			ref := runSession(t, mod, prep, comp, driver.EngineReference, full, full)
			compareSessions(t, driver.EnginePrepared,
				ref, runSession(t, mod, prep, comp, driver.EnginePrepared, full, full))
			compareSessions(t, driver.EngineCompiled,
				ref, runSession(t, mod, prep, comp, driver.EngineCompiled, full, full))
			compareSessions(t, engineLazy,
				ref, runSession(t, mod, prep, comp, engineLazy, full, full))
			if c.wantErr && ref.err == nil {
				t.Fatal("expected the guest to die of an uncaught exception")
			}
			if !c.wantErr && ref.err != nil {
				t.Fatalf("guest failed under full budget: %v", ref.err)
			}
			if ref.out == "" {
				t.Fatal("guest printed nothing; the run proves nothing")
			}

			// Mid-run kills: the kill must land on the same instruction in
			// every engine even while unwinding through handlers.
			if half := ref.steps / 2; half > 0 {
				refK := runSession(t, mod, prep, comp, driver.EngineReference, half, full)
				compareSessions(t, driver.EnginePrepared,
					refK, runSession(t, mod, prep, comp, driver.EnginePrepared, half, full))
				compareSessions(t, driver.EngineCompiled,
					refK, runSession(t, mod, prep, comp, driver.EngineCompiled, half, full))
				compareSessions(t, engineLazy,
					refK, runSession(t, mod, prep, comp, engineLazy, half, full))
				if rt.KillReason(refK.err) != "step_limit" {
					t.Errorf("expected a step-limit kill at %d steps, got %v", half, refK.err)
				}
			}
			if half := ref.allocs / 2; half > 0 {
				refK := runSession(t, mod, prep, comp, driver.EngineReference, full, half)
				compareSessions(t, driver.EnginePrepared,
					refK, runSession(t, mod, prep, comp, driver.EnginePrepared, full, half))
				compareSessions(t, driver.EngineCompiled,
					refK, runSession(t, mod, prep, comp, driver.EngineCompiled, full, half))
				compareSessions(t, engineLazy,
					refK, runSession(t, mod, prep, comp, engineLazy, full, half))
				if rt.KillReason(refK.err) != "alloc_limit" {
					t.Errorf("expected an alloc-limit kill at %d allocs, got %v", half, refK.err)
				}
			}
		})
	}
}

// TestEnginePartityCorpus is the budget-parity property test over the
// full corpus: for every unit, unoptimized and optimized, the prepared
// and compiled engines — the latter over an eagerly compiled form and
// over one its session fills on first call — must drain exactly the same
// step and alloc
// budget as the reference evaluator, print the same bytes, and leave an
// identical reachable heap. Each unit is then re-run under a step
// budget set to half its full drain and an alloc budget set to half its
// full drain, so the budget-kill paths of all three engines are
// compared too — the guest-kill metrics must not shift when the default
// engine changes.
func TestEngineParityCorpus(t *testing.T) {
	for _, u := range corpus.Units() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				name := "unopt"
				if optimize {
					name = "opt"
				}
				t.Run(name, func(t *testing.T) {
					mod, err := driver.CompileTSASource(u.Files)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					if optimize {
						if _, err := driver.OptimizeModule(mod); err != nil {
							t.Fatalf("optimize: %v", err)
						}
					}
					prep, err := interp.Prepare(mod)
					if err != nil {
						t.Fatalf("prepare: %v", err)
					}
					comp, err := interp.Compile(mod, prep)
					if err != nil {
						t.Fatalf("compile backend: %v", err)
					}

					const full = 50_000_000
					ref := runSession(t, mod, prep, comp, driver.EngineReference, full, full)
					pre := runSession(t, mod, prep, comp, driver.EnginePrepared, full, full)
					cmp := runSession(t, mod, prep, comp, driver.EngineCompiled, full, full)
					compareSessions(t, driver.EnginePrepared, ref, pre)
					compareSessions(t, driver.EngineCompiled, ref, cmp)
					compareSessions(t, engineLazy, ref, runSession(t, mod, prep, comp, engineLazy, full, full))
					if ref.err != nil {
						t.Fatalf("corpus unit failed under full budget: %v", ref.err)
					}

					// Step-kill parity at half the real drain.
					if half := ref.steps / 2; half > 0 {
						refK := runSession(t, mod, prep, comp, driver.EngineReference, half, full)
						preK := runSession(t, mod, prep, comp, driver.EnginePrepared, half, full)
						cmpK := runSession(t, mod, prep, comp, driver.EngineCompiled, half, full)
						compareSessions(t, driver.EnginePrepared, refK, preK)
						compareSessions(t, driver.EngineCompiled, refK, cmpK)
						compareSessions(t, engineLazy, refK, runSession(t, mod, prep, comp, engineLazy, half, full))
						if rt.KillReason(refK.err) != "step_limit" {
							t.Errorf("expected a step-limit kill at %d steps, got %v", half, refK.err)
						}
					}

					// Alloc-kill parity at half the real drain.
					if half := ref.allocs / 2; half > 0 {
						refK := runSession(t, mod, prep, comp, driver.EngineReference, full, half)
						preK := runSession(t, mod, prep, comp, driver.EnginePrepared, full, half)
						cmpK := runSession(t, mod, prep, comp, driver.EngineCompiled, full, half)
						compareSessions(t, driver.EnginePrepared, refK, preK)
						compareSessions(t, driver.EngineCompiled, refK, cmpK)
						compareSessions(t, engineLazy, refK, runSession(t, mod, prep, comp, engineLazy, full, half))
						if rt.KillReason(refK.err) != "alloc_limit" {
							t.Errorf("expected an alloc-limit kill at %d allocs, got %v", half, refK.err)
						}
					}
				})
			}
		})
	}
}
