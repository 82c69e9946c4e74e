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
// release hands the next session is still at most maxStockSlots slots.
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
	if st == nil || len(l.cfree) != cframePoolCap || held < 4*maxStockSlots {
		t.Fatalf("the run retired %d frames of %d register slots (stock %v); want %d frames, far over %d slots", len(l.cfree), held, st != nil, cframePoolCap, maxStockSlots)
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
	if kept > maxStockSlots || len(st.cfree) == 0 {
		t.Errorf("the released stock keeps %d slots in %d frames, want at most %d and some frame", kept, len(st.cfree), maxStockSlots)
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
