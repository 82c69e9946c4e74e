package interp_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// lowered compiles src and mints both lowered forms from the module.
func lowered(t *testing.T, src string) (*core.Module, *interp.Prepared, *interp.Compiled) {
	t.Helper()
	mod := compile(t, src)
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod, prep, comp
}

// TestLoweredFormsAreBoundToTheirModule pins the one hazard a lowered
// form really has: being run against a module it was not built from. The
// two modules below have the same number of functions — all the old
// len(Funcs) comparison looked at — but different bodies, so a foreign
// form would index one module's tables with the other's ids. Every
// entry point that takes a form must refuse it, and must refuse a nil,
// zero-value or hand-assembled form as well: only Prepare and Compile
// can mint one.
func TestLoweredFormsAreBoundToTheirModule(t *testing.T) {
	modA, prepA, compA := lowered(t, `
class Main {
    static int f(int n) { return n + 1; }
    static void main() { System.out.println(f(41)); }
}`)
	modB, prepB, compB := lowered(t, `
class Main {
    static String g(String s, String u) { return s + u + s; }
    static void main() { System.out.println(g("a", "b")); }
}`)
	if len(modA.Funcs) != len(modB.Funcs) {
		t.Fatalf("test modules must have equal function counts, got %d and %d", len(modA.Funcs), len(modB.Funcs))
	}
	handPrep := &interp.Prepared{Funcs: prepB.Funcs}
	// A compiled form's slots are unexported: the one a caller can
	// assemble by hand is the zero value, with no module to bind.
	handComp := &interp.Compiled{}
	env := func() *rt.Env { return &rt.Env{Out: &bytes.Buffer{}, MaxSteps: 1_000_000} }

	cases := []struct {
		name string
		try  func() error
	}{
		{"Compile/foreign", func() error { _, err := interp.Compile(modB, prepA); return err }},
		{"Compile/nil", func() error { _, err := interp.Compile(modB, nil); return err }},
		{"Compile/zero", func() error { _, err := interp.Compile(modB, &interp.Prepared{}); return err }},
		{"Compile/hand-built", func() error { _, err := interp.Compile(modB, handPrep); return err }},
		{"LoadTrustedPrepared/foreign", func() error { _, err := interp.LoadTrustedPrepared(modB, prepA, env()); return err }},
		{"LoadTrustedPrepared/nil", func() error { _, err := interp.LoadTrustedPrepared(modB, nil, env()); return err }},
		{"LoadTrustedPrepared/hand-built", func() error { _, err := interp.LoadTrustedPrepared(modB, handPrep, env()); return err }},
		{"LoadTrustedCompiled/foreign", func() error { _, err := interp.LoadTrustedCompiled(modB, compA, env()); return err }},
		{"LoadTrustedCompiled/nil", func() error { _, err := interp.LoadTrustedCompiled(modB, nil, env()); return err }},
		{"LoadTrustedCompiled/zero", func() error { _, err := interp.LoadTrustedCompiled(modB, &interp.Compiled{}, env()); return err }},
		{"LoadTrustedCompiled/hand-built", func() error { _, err := interp.LoadTrustedCompiled(modB, handComp, env()); return err }},
		{"LoadTrustedCompiled/foreign-lazy", func() error { _, err := interp.LoadTrustedCompiled(modB, interp.Lazy(modA), env()); return err }},
		{"LoadTrustedDeferred/foreign-compiled", func() error { _, err := interp.LoadTrustedDeferred(modB, nil, compA, env()); return err }},
		{"LoadTrustedDeferred/foreign-prepared", func() error { _, err := interp.LoadTrustedDeferred(modB, prepA, nil, env()); return err }},
		{"LoadTrustedDeferred/zero", func() error { _, err := interp.LoadTrustedDeferred(modB, nil, &interp.Compiled{}, env()); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.try()
			if err == nil || !strings.Contains(err.Error(), "does not match module") {
				t.Fatalf("got %v, want the form/module mismatch error", err)
			}
		})
	}

	// The forms minted from modB itself are accepted.
	if _, err := interp.LoadTrustedDeferred(modB, prepB, compB, env()); err != nil {
		t.Fatalf("own forms rejected: %v", err)
	}
	if _, err := interp.LoadTrustedCompiled(modB, interp.Lazy(modB), env()); err != nil {
		t.Fatalf("own lazy form rejected: %v", err)
	}
}

// TestCompileRejectsUnknownOpcode: Compile trusts the operands of a
// minted form but still answers an opcode it has no handler for with an
// error, not a panic or a record with no handler.
func TestCompileRejectsUnknownOpcode(t *testing.T) {
	mod, prep, _ := lowered(t, `class Main { static void main() { System.out.println(1); } }`)
	prep.Funcs[0].Code[0].Op = interp.POp(250)
	if _, err := interp.Compile(mod, prep); err == nil || !strings.Contains(err.Error(), "unhandled prepared opcode") {
		t.Fatalf("got %v, want an unhandled-opcode error", err)
	}
}

// TestLoadEntryPoints drives the five Load* names through the one
// constructor behind them and checks the three things it decides: which
// engine the session is bound to, whether every invocation goes through
// the gate, and whether the static initializers have run by the time the
// call returns.
func TestLoadEntryPoints(t *testing.T) {
	mod, prep, comp := lowered(t, `
class Main {
    static int seed = boot();
    static int boot() { System.out.println("init"); return 7; }
    static void main() { System.out.println(seed); }
}`)
	var gated []int
	gate := func(fi int) error { gated = append(gated, fi); return nil }

	cases := []struct {
		name     string
		load     func(env *rt.Env) (*interp.Loader, error)
		engine   string
		gated    bool
		deferred bool
	}{
		{"LoadTrusted", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrusted(mod, env) }, "reference", false, false},
		{"LoadTrustedStreaming", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrustedStreaming(mod, gate, env) }, "compiled", true, false},
		{"LoadTrustedPrepared", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrustedPrepared(mod, prep, env) }, "prepared", false, false},
		{"LoadTrustedCompiled", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrustedCompiled(mod, comp, env) }, "compiled", false, false},
		{"LoadTrustedDeferred/reference", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrustedDeferred(mod, nil, nil, env) }, "reference", false, true},
		{"LoadTrustedDeferred/prepared", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrustedDeferred(mod, prep, nil, env) }, "prepared", false, true},
		{"LoadTrustedDeferred/compiled-wins", func(env *rt.Env) (*interp.Loader, error) { return interp.LoadTrustedDeferred(mod, prep, comp, env) }, "compiled", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gated = nil
			var out bytes.Buffer
			l, err := tc.load(&rt.Env{Out: &out, MaxSteps: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if got := interp.EngineOf(l); got != tc.engine {
				t.Errorf("engine %s, want %s", got, tc.engine)
			}
			if tc.deferred {
				if out.Len() != 0 {
					t.Fatalf("deferred load ran guest code: %q", out.String())
				}
				if err := l.RunStaticInit(); err != nil {
					t.Fatal(err)
				}
			}
			if out.String() != "init\n" {
				t.Fatalf("after static init: %q, want %q", out.String(), "init\n")
			}
			if err := l.RunMain(); err != nil {
				t.Fatal(err)
			}
			if out.String() != "init\n7\n" {
				t.Errorf("output %q, want %q", out.String(), "init\n7\n")
			}
			if tc.gated != (len(gated) > 0) {
				t.Errorf("gate consulted %d times, want gated=%v", len(gated), tc.gated)
			}
		})
	}

	// A gate that refuses aborts the load with the gate's error: the
	// static initializer is the first function it is asked about.
	cut := errors.New("stream cut")
	refuse := func(int) error { return cut }
	if _, err := interp.LoadTrustedStreaming(mod, refuse, &rt.Env{Out: &bytes.Buffer{}}); err != cut {
		t.Fatalf("refusing gate: got %v, want %v", err, cut)
	}
}

// TestStreamingSessionLowersWhatItCalls pins the rule a streaming session
// runs by: a function is callable once admitted and lowered, both happen
// the first time the guest calls it, and never for a function it does not
// call. A body the gate admitted but lowering refuses ends the run where
// the call stood — past the guest's own handlers — with an error that
// says so (errors.ErrUnsupported), which is how the stream door tells it
// from a guest failure.
func TestStreamingSessionLowersWhatItCalls(t *testing.T) {
	const src = `
class Main {
    static int unused(int n) { return n * 2; }
    static int twice(int n) { return n + n; }
    static void main() {
        System.out.println("before");
        try { System.out.println(twice(21)); } catch (Exception e) { System.out.println("caught"); }
        System.out.println(twice(4));
    }
}`
	index := func(mod *core.Module, name string) int {
		for i, f := range mod.Funcs {
			if strings.HasSuffix(mod.FuncName(f), name) {
				return i
			}
		}
		t.Fatalf("no function %s", name)
		return -1
	}
	// corrupt makes name's body one only Prepare refuses.
	corrupt := func(mod *core.Module, name string) {
		for _, b := range mod.Funcs[index(mod, name)].Blocks {
			for _, in := range b.Code {
				if len(in.Args) > 0 {
					in.Args[0] = 9999
					return
				}
			}
		}
		t.Fatalf("nothing to corrupt in %s", name)
	}
	run := func(mod *core.Module) (out string, gated []int, err error) {
		var buf bytes.Buffer
		gate := func(fi int) error { gated = append(gated, fi); return nil }
		l, err := interp.LoadTrustedStreaming(mod, gate, &rt.Env{Out: &buf, MaxSteps: 1_000_000})
		if err == nil {
			err = l.RunMain()
		}
		return buf.String(), gated, err
	}

	mod := compile(t, src)
	corrupt(mod, "unused") // never called, so never lowered
	// Nor is anything sized by an index the tables merely claim: the
	// session's form grows with what the gate has admitted.
	for i := range mod.Methods {
		if mod.Methods[i].Name == "unused" {
			mod.Methods[i].FuncIdx = 1<<22 - 1
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, gated, err := run(mod)
	runtime.ReadMemStats(&after)
	if err != nil || out != "before\n42\n8\n" {
		t.Fatalf("got %q, %v", out, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("the session allocated %d bytes under a table that claims function index 1<<22-1", got)
	}
	want := []int{index(mod, "main"), index(mod, "twice")}
	if len(gated) != len(want) || gated[0] != want[0] || gated[1] != want[1] {
		t.Errorf("gate asked about %v, want %v: once per function called, in call order", gated, want)
	}

	mod = compile(t, src)
	corrupt(mod, "twice")
	out, _, err = run(mod)
	if !errors.Is(err, errors.ErrUnsupported) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("got %v, want a lowering refusal", err)
	}
	if out != "before\n" {
		t.Errorf("output %q: the abort must pass the guest's handler", out)
	}
}

// TestSharedFormFilledOnce: sixteen sessions of one resident unit make
// their first calls at once, over one form that starts empty. Each
// session's result is the eagerly compiled form's, byte for byte; each
// slot is filled once — a function two sessions raced to call first is
// lowered once, under the form's lock — and never changes after; and a
// second wave over the filled form lowers nothing. Run it under -race.
func TestSharedFormFilledOnce(t *testing.T) {
	// Its guest calls 11 of its 30 functions.
	u, ok := corpus.ByName("BatchEnvironment")
	if !ok {
		t.Fatal("corpus unit missing")
	}
	mod, err := driver.CompileTSASource(u.Files)
	if err == nil {
		_, err = driver.OptimizeModule(mod)
	}
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
	const full = 50_000_000
	want := runSession(t, mod, prep, comp, driver.EngineCompiled, full, full)
	if want.err != nil {
		t.Fatal(want.err)
	}

	shared := interp.Lazy(mod)
	wave := func() (lowered int) {
		const sessions = 16
		results := make([]sessionResult, sessions)
		counts := make([]int, sessions)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var out bytes.Buffer
				env := &rt.Env{Out: &out, MaxSteps: full, MaxAlloc: full}
				l, err := interp.LoadTrustedCompiled(mod, shared, env)
				if err == nil {
					err = l.RunMain()
				}
				results[i] = sessionResult{out: out.String(), err: err, steps: env.Steps, allocs: env.Allocs, heap: l.HeapChecksum()}
				counts[i] = l.Lowered().Funcs
			}()
		}
		close(start)
		wg.Wait()
		for i, got := range results {
			compareSessions(t, fmt.Sprintf("shared form, session %d", i), want, got)
			lowered += counts[i]
		}
		return lowered
	}

	first := wave()
	slots := interp.Slots(shared)
	filled := 0
	for _, cf := range slots {
		if cf != nil {
			filled++
		}
	}
	if filled == 0 || filled == len(slots) {
		t.Fatalf("%d of %d slots filled: the guest should call some functions of the unit and not all", filled, len(slots))
	}
	if first != filled {
		t.Errorf("%d slots filled by %d lowerings", filled, first)
	}
	if again := wave(); again != 0 {
		t.Errorf("a second wave over the filled form lowered %d functions", again)
	}
	for i, cf := range interp.Slots(shared) {
		if cf != slots[i] {
			t.Errorf("slot %d changed after it was published", i)
		}
	}
}

// TestSharedCursorPulledOnce is TestSharedFormFilledOnce over a form whose
// bodies are still behind a cursor (interp.PulledIn over wire.OpenVerified),
// as a resident unit's form is on /run. Sixteen sessions race first calls
// on it: half fresh, half clones of a snapshot taken after static init and
// before main, so clones pull bodies no session has pulled yet. Every
// session must end as one over the eager form does, and each body is
// decoded once: every pull of a function hands over the one body the
// cursor admitted for it, the pulls admit no body twice and stop short of
// the unit's end, and a second wave pulls nothing.
func TestSharedCursorPulledOnce(t *testing.T) {
	u, ok := corpus.ByName("BatchEnvironment")
	if !ok {
		t.Fatal("corpus unit missing")
	}
	mod, err := driver.CompileTSASource(u.Files)
	if err == nil {
		_, err = driver.OptimizeModule(mod)
	}
	if err != nil {
		t.Fatal(err)
	}
	const full = 50_000_000
	want := runSession(t, mod, nil, nil, engineLazy, full, full)
	if want.err != nil {
		t.Fatal(want.err)
	}

	su, err := wire.OpenVerified(wire.EncodeModuleV2(mod, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Written under the form's lock, read between waves.
	pulled := 0
	handed := map[int]*core.Func{}
	form := interp.PulledIn(su.Mod, su.NumFuncs(), func(fi int) (*core.Func, error) {
		ready := su.Ready()
		if err := su.WaitFunc(fi); err != nil {
			return nil, err
		}
		pulled += su.Ready() - ready
		f := su.Mod.Funcs[fi]
		if g, ok := handed[fi]; ok && g != f {
			t.Errorf("function %d handed over as two different bodies", fi)
		}
		handed[fi] = f
		return f, nil
	}, nil)
	var initOut bytes.Buffer
	initSess, err := interp.LoadTrustedDeferred(su.Mod, nil, form, &rt.Env{Out: &initOut, MaxSteps: full, MaxAlloc: full})
	if err == nil {
		err = initSess.RunStaticInit()
	}
	if err != nil {
		t.Fatal(err)
	}
	snap, err := initSess.Snapshot(initOut.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	wave := func() {
		const sessions = 16
		results := make([]sessionResult, sessions)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var out bytes.Buffer
				env := &rt.Env{Out: &out, MaxSteps: full, MaxAlloc: full}
				var l *interp.Loader
				var err error
				if i%2 == 0 {
					l, err = interp.LoadTrustedCompiled(su.Mod, form, env)
				} else {
					l, err = snap.NewSession(env)
				}
				if err == nil {
					err = l.RunMain()
				}
				results[i] = sessionResult{out: out.String(), err: err, steps: env.Steps, allocs: env.Allocs, heap: l.HeapChecksum()}
			}()
		}
		close(start)
		wg.Wait()
		for i, got := range results {
			compareSessions(t, fmt.Sprintf("cursor-backed form, session %d (clone %v)", i, i%2 == 1), want, got)
		}
	}

	wave()
	first := pulled
	if first != su.Ready() || first >= su.NumFuncs() {
		t.Errorf("the pulls admitted %d bodies, the cursor holds %d of %d: want them equal and short of the unit's end",
			first, su.Ready(), su.NumFuncs())
	}
	wave()
	if pulled != first {
		t.Errorf("a second wave over the pulled form pulled %d more bodies", pulled-first)
	}
}

// TestRecycledCodeFailsLoudly: code memory given back under
// core.PoisonRecycled turns into records whose handler panics "recycled
// code executed", so a session that still runs a form after the form's
// memory went back fails at its next call into that code, instead of
// running it as if it were still the form's — or running whatever the
// next unit's lowering put there.
func TestRecycledCodeFailsLoudly(t *testing.T) {
	core.PoisonRecycled(true)
	defer core.PoisonRecycled(false)
	mod := compile(t, `class R { static int f(int n) { return n * 2 + 1; } static void main() { } }`)
	var mem interp.CodeArena
	form := interp.PulledIn(mod, len(mod.Funcs), func(fi int) (*core.Func, error) { return mod.Funcs[fi], nil }, &mem)
	l, err := interp.LoadTrustedCompiled(mod, form, &rt.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.CallStatic("R", "f", rt.IntValue(20)); err != nil || got.Int() != 41 {
		t.Fatalf("f(20) = %d, %v", got.Int(), err)
	}
	mem.Rewind()
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "recycled code executed") {
			t.Errorf("running code after its memory went back panicked with %q", r)
		}
	}()
	got, err := l.CallStatic("R", "f", rt.IntValue(20))
	t.Errorf("code whose memory went back ran: f(20) = %d, %v", got.Int(), err)
}
