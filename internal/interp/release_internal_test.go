package interp

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
)

// TestReleaseHandsOnClearedFrames: what a released compiled session leaves
// the next one — its stack of frame records and slots — holds nothing of
// it: every slot the session used is cleared and no frame record names
// the session, its environment or a window, though the guest left
// references in them. The released session's statics are cleared, and it
// refuses to run or to be snapshotted.
func TestReleaseHandsOnClearedFrames(t *testing.T) {
	l := compiledSession(t, `class R {
		static String last;
		static String f(int n) { String s = "x" + n; if (n == 0) { return s; } return f(n - 1) + s; }
		static void main() { R.last = f(5); System.out.println(R.last); } }`)
	st := l.stack
	if st == nil || st.depth != 0 || st.top != 0 {
		t.Fatalf("the run left stack %+v, want an empty one", st)
	}
	frames := slices.Clone(st.frames)
	stale := 0
	for _, v := range st.slots[:st.used] {
		if v.R != nil {
			stale++
		}
	}
	if len(frames) < 7 || stale == 0 {
		t.Fatalf("the run made %d frame records and left %d references in %d used slots", len(frames), stale, st.used)
	}

	l.Release()
	for _, ci := range l.classes {
		if ci == nil {
			continue
		}
		for i, v := range ci.Statics {
			if v != (rt.Value{}) {
				t.Fatalf("static %d of %s still reads %+v after release", i, ci.Name, v)
			}
		}
	}
	if l.stack != nil || !slices.Equal(st.frames, frames) || len(st.slots) == 0 {
		t.Fatalf("the stock holds %d frame records and %d slots of the session's %d records", len(st.frames), len(st.slots), len(frames))
	}
	for i, fr := range st.frames {
		if fr.l != nil || fr.env != nil || fr.fn != nil || fr.regs != nil || fr.args != nil || fr.ret != (rt.Value{}) || fr.caught != (rt.Value{}) || fr.at != 0 {
			t.Fatalf("frame record %d leaves the session as %+v", i, fr)
		}
	}
	for i, v := range st.slots {
		if v != (rt.Value{}) {
			t.Fatalf("slot %d leaves the session holding %+v", i, v)
		}
	}
	if st.used != 0 {
		t.Fatalf("the released stack says %d slots are in use", st.used)
	}

	if err := l.RunMain(); !errors.Is(err, errReleased) {
		t.Errorf("RunMain after Release: %v", err)
	}
	if err := l.RunStaticInit(); !errors.Is(err, errReleased) {
		t.Errorf("RunStaticInit after Release: %v", err)
	}
	if _, err := l.CallStatic("R", "f", rt.IntValue(1)); !errors.Is(err, errReleased) {
		t.Errorf("CallStatic after Release: %v", err)
	}
	if _, err := l.Snapshot(nil); !errors.Is(err, errReleased) {
		t.Errorf("Snapshot after Release: %v", err)
	}
	l.Release() // a second release is a no-op
}

// TestReleasedStockIsBounded: a guest that recurses deep and calls a wide
// function at the bottom grows its stack far past what a released one
// may carry, in slots and in frame records; its release hands the next
// session at most maxStockBytes of slots and maxStockFrames records.
func TestReleasedStockIsBounded(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("static int wide(int n) { int a0 = n;")
	for i := 1; i < 600; i++ {
		fmt.Fprintf(&wide, " int a%d = a%d * 3 + n;", i, i-1)
	}
	wide.WriteString(" return a599; }")
	l := compiledSession(t, `class W {
		`+wide.String()+`
		static int f(int n) { if (n == 0) { return W.wide(n); } return W.f(n - 1) + 1; }
		static void main() { System.out.println(W.f(5000)); } }`)
	st := l.stack
	grown, records := len(st.slots), len(st.frames)
	if grown*slotBytes <= 2*maxStockBytes || records <= 2*maxStockFrames {
		t.Fatalf("the run grew its stack to %d slots and %d frame records; want far over %d B and %d", grown, records, maxStockBytes, maxStockFrames)
	}

	l.Release()
	t.Logf("a stack of %d slots and %d frame records is stocked as %d slots and %d records", grown, records, len(st.slots), len(st.frames))
	if len(st.slots)*slotBytes > maxStockBytes || len(st.frames) != maxStockFrames {
		t.Errorf("the released stack keeps %d slots and %d frame records, want at most %d B of slots and %d records", len(st.slots), len(st.frames), maxStockBytes, maxStockFrames)
	}
	// The next session runs on what was kept.
	next := compiledLoader(t, `class N { static int f(int n) { if (n == 0) { return 0; } return N.f(n - 1) + n; } }`)
	next.stack = st
	if v, err := next.CallStatic("N", "f", rt.IntValue(100)); err != nil || v.Int() != 5050 {
		t.Errorf("a session on the stocked stack answered %d, %v; want 5050", v.Int(), err)
	}
}

// compiledSession loads src on the compiled engine and runs main.
func compiledSession(t *testing.T, src string) *Loader {
	t.Helper()
	l := compiledLoader(t, src)
	if err := l.RunMain(); err != nil {
		t.Fatal(err)
	}
	return l
}

// compiledLoader loads src on the compiled engine, lowering each function
// on its first call.
func compiledLoader(t *testing.T, src string) *Loader {
	t.Helper()
	mod := verifiedModule(t, src)
	l, err := LoadTrustedCompiled(mod, Lazy(mod), rt.NewEnv(io.Discard, rt.Budget{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// verifiedModule is src built and verified.
func verifiedModule(t *testing.T, src string) *core.Module {
	t.Helper()
	f, errs := parser.ParseFile("S.tj", src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	prog, errs := sema.Check(f)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	mod, err := ssabuild.Build(prog)
	if err == nil {
		err = mod.Verify(core.VerifyOptions{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestStockedLowererForgetsItsUnit: a lowerer given back to its stock
// names nothing of the unit it lowered — no module, no body, no block
// among its handler keys, pending jumps or raise fixups, and no constant,
// string or raise site anywhere in its emission buffer — so a stocked
// lowerer pins no unit, and nothing of a unit whose arena was rewound or
// poisoned reaches the next lowering through it. The wide function is
// lowered first, so the narrow one leaves a stale tail behind it if
// anything does.
func TestStockedLowererForgetsItsUnit(t *testing.T) {
	l := compiledSession(t, `class T {
		static int wide(int n) {
			int s = 0;
			for (int i = 0; i < n; i = i + 1) {
				try { s = s + "abc".length() + 10 / (n - i); } catch (ArithmeticException e) { s = s - 1; }
				while (s > 100) { s = s - 7; if (s == 50) { break; } }
			}
			String t = "tail";
			try { s = s + t.charAt(n); } catch (IndexOutOfBoundsException e) { s = s + 3; }
			return s;
		}
		static int narrow(int n) { return n + 1; }
		static void main() { System.out.println(T.wide(5) + T.narrow(2)); } }`)
	for _, name := range []string{"wide", "narrow"} {
		var f *core.Func
		for _, g := range l.Mod.Funcs {
			if strings.HasSuffix(l.Mod.FuncName(g), name) {
				f = g
			}
		}
		c := lowerers.Take()
		c.mod, c.nFuncs = l.Mod, len(l.Mod.Funcs)
		if _, err := c.lowerFunc(f, &Lowering{}, new(CodeArena)); err != nil {
			t.Fatal(err)
		}
		if name == "wide" && (len(c.handlers) == 0 || len(c.raiseFix) == 0) {
			t.Fatalf("%s lowered with %d handlers and %d raise sites; the test needs some", name, len(c.handlers), len(c.raiseFix))
		}
		lowerers.Give(c)
		if c.mod != nil || c.f != nil || c.fl.src != nil || len(c.handlers) != 0 {
			t.Errorf("after %s, the stocked lowerer names module %v, body %v, block %v, %d handler blocks", name, c.mod != nil, c.f != nil, c.fl.src != nil, len(c.handlers))
		}
		for i, in := range c.code[:cap(c.code)] {
			if in.Val != (rt.Value{}) || in.Str != "" || in.Raise != nil {
				t.Fatalf("after %s, emission slot %d still holds %+v", name, i, in)
			}
		}
		for _, fix := range c.raiseFix[:cap(c.raiseFix)] {
			if fix.handler != nil {
				t.Fatalf("after %s, a raise fixup still names block %d", name, fix.handler.Index)
			}
		}
		for _, lc := range c.loop[:cap(c.loop)] {
			if lc.breaks != nil || lc.continues != nil {
				t.Fatalf("after %s, a loop context still lists its jumps", name)
			}
		}
	}
}
