package interp

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
)

// TestReleaseHandsOnClearedFrames: what a released compiled session leaves
// the next one — its frames and argument buffers — holds nothing of it:
// every register file and buffer is cleared to its capacity and no frame
// names the session or its environment, though the guest left references
// in them. The released session's statics are cleared, and it refuses to
// run or to be snapshotted.
func TestReleaseHandsOnClearedFrames(t *testing.T) {
	l := compiledSession(t, `class R {
		static String last;
		static String f(int n) { String s = "x" + n; if (n == 0) { return s; } return f(n - 1) + s; }
		static void main() { R.last = f(5); System.out.println(R.last); } }`)
	frames, bufs, st := append([]*cframe(nil), l.cfree...), append([][]rt.Value(nil), l.afree...), l.stock
	stale := 0
	for _, fr := range frames {
		for _, v := range fr.regs[:cap(fr.regs)] {
			if v.R != nil {
				stale++
			}
		}
	}
	if len(frames) < 6 || len(bufs) == 0 || st == nil || stale == 0 {
		t.Fatalf("the run retired %d frames, %d argument buffers (stock %v) holding %d references", len(frames), len(bufs), st != nil, stale)
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
	if len(st.cfree) != len(frames) || len(st.afree) != len(bufs) || l.stock != nil || l.cfree != nil {
		t.Fatalf("the stock holds %d frames and %d buffers of the session's %d and %d", len(st.cfree), len(st.afree), len(frames), len(bufs))
	}
	for i, fr := range st.cfree {
		if fr != frames[i] || fr.l != nil || fr.env != nil || fr.args != nil || fr.ret != (rt.Value{}) || fr.caught != (rt.Value{}) {
			t.Fatalf("frame %d leaves the session as %+v", i, fr)
		}
		for _, v := range fr.regs[:cap(fr.regs)] {
			if v != (rt.Value{}) {
				t.Fatalf("frame %d leaves the session holding %+v", i, v)
			}
		}
	}
	for i, buf := range st.afree {
		for _, v := range buf[:cap(buf)] {
			if v != (rt.Value{}) {
				t.Fatalf("argument buffer %d leaves the session holding %+v", i, v)
			}
		}
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

// TestReleasedStockIsBounded: a guest that calls a wide function at every
// level of a deep recursion retires a frame of the wide function's width
// per level, though each level is charged only its small frame; what its
// release hands the next session is still at most maxStockBytes of slots.
func TestReleasedStockIsBounded(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("static int wide(int n) { int a0 = n;")
	for i := 1; i < 600; i++ {
		fmt.Fprintf(&wide, " int a%d = a%d * 3 + n;", i, i-1)
	}
	wide.WriteString(" return a599; }")
	l := compiledSession(t, `class W {
		`+wide.String()+`
		static int f(int n) { if (n == 0) { return 0; } int r = W.wide(n); return W.f(n - 1) + r; }
		static void main() { System.out.println(W.f(70)); } }`)
	st, held := l.stock, 0
	for _, fr := range l.cfree {
		held += cap(fr.regs)
	}
	if st == nil || len(l.cfree) != cframePoolCap || held*slotBytes < 4*maxStockBytes {
		t.Fatalf("the run retired %d frames of %d register slots (stock %v); want %d frames, far over %d B of slots", len(l.cfree), held, st != nil, cframePoolCap, maxStockBytes)
	}

	l.Release()
	kept := 0
	for _, fr := range st.cfree {
		kept += cap(fr.regs)
	}
	for _, buf := range st.afree {
		kept += cap(buf)
	}
	t.Logf("%d frames of %d slots retired; the stock keeps %d frames, %d buffers, %d slots", cframePoolCap, held, len(st.cfree), len(st.afree), kept)
	if kept*slotBytes > maxStockBytes || len(st.cfree) == 0 {
		t.Errorf("the released stock keeps %d slots in %d frames, want at most %d B of them and some frame", kept, len(st.cfree), maxStockBytes)
	}
}

// compiledSession loads src on the compiled engine and runs main.
func compiledSession(t *testing.T, src string) *Loader {
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
	l, err := LoadTrustedCompiled(mod, Lazy(mod), rt.NewEnv(io.Discard, rt.Budget{}, nil))
	if err == nil {
		err = l.RunMain()
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
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
			if strings.HasSuffix(g.Name, name) {
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
