package interp

import (
	"errors"
	"io"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// The compiled engine's activations are one stack because they are
// strictly nested: a guest exception returns by value through every
// frame it leaves, and only a kill or a lowering refusal panics past
// frames, which catchTopLevel answers by emptying the stack. Each test
// below ends an activation one of those three ways and then checks the
// stack and the depth charge are back to nothing.

// emptyStack fails t unless l's compiled stack and depth charge are empty.
func emptyStack(t *testing.T, l *Loader, after string) {
	t.Helper()
	if s := l.stack; s.depth != 0 || s.top != 0 || l.Env.StackSlots() != 0 {
		t.Fatalf("after %s the stack is %d frames and %d slots high, %d slots charged; want all zero", after, s.depth, s.top, l.Env.StackSlots())
	}
}

// TestKilledDeepSessionRunsAgainFromAnEmptyStack: a session the step
// budget kills 200 calls deep can take another CallStatic on the same
// loader; that call runs from an empty stack — it reuses the killed
// activations' frame records instead of stacking its own above them —
// and answers what the reference walker does, though the stack grew
// under its live frames on the way down.
func TestKilledDeepSessionRunsAgainFromAnEmptyStack(t *testing.T) {
	mod := verifiedModule(t, `class K {
		static int down(int n) { if (n == 0) { while (true) { } } return K.down(n - 1) + 1; }
		static int sum(int n) { if (n == 0) { return 0; } return K.sum(n - 1) + n * n; } }`)
	env := rt.NewEnv(io.Discard, rt.Budget{MaxSteps: 100_000}, nil)
	l, err := LoadTrustedCompiled(mod, Lazy(mod), env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CallStatic("K", "down", rt.IntValue(200)); !errors.Is(err, rt.ErrStepLimit) {
		t.Fatalf("down(200) ended with %v, want the step kill", err)
	}
	emptyStack(t, l, "the kill")
	if killed := len(l.stack.frames); killed != 201 {
		t.Fatalf("the killed call made %d frame records, want 201", killed)
	}
	// The kill's pop recorded how high the stack was, so the slots past
	// that mark are still zero; and each grow moved every live window
	// along, so no frame names an array the stack outgrew.
	for i, v := range l.stack.slots[l.stack.used:] {
		if v != (rt.Value{}) {
			t.Fatalf("slot %d past the high-water mark %d holds %+v", l.stack.used+i, l.stack.used, v)
		}
	}
	for i, fr := range l.stack.frames {
		if &fr.regs[0] != &l.stack.slots[fr.at] {
			t.Fatalf("frame %d's registers are not in the stack's slot array", i)
		}
	}

	env.MaxSteps = 0
	got, err := l.CallStatic("K", "sum", rt.IntValue(300))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LoadTrusted(mod, rt.NewEnv(io.Discard, rt.Budget{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CallStatic("K", "sum", rt.IntValue(300))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum(300) after the kill is %d, the reference walker says %d", got.Int(), want.Int())
	}
	emptyStack(t, l, "sum(300)")
	if n := len(l.stack.frames); n != 301 {
		t.Errorf("the two calls made %d frame records; 301 reused from depth 0, 502 stacked over the killed call", n)
	}
}

// TestThrowThroughFramesPopsThem: a guest exception thrown through 100
// compiled frames and caught at the bottom leaves by return through each
// of them, popping every window it pushed: fifty rounds of it reach no
// higher on the stack than one does.
func TestThrowThroughFramesPopsThem(t *testing.T) {
	l := compiledLoader(t, `class E {
		static int thrower(int n) { if (n == 0) { return 1 / n; } return E.thrower(n - 1) + 1; }
		static int bottom(int k) {
			int caught = 0;
			while (k > 0) {
				try { caught = caught + E.thrower(100); } catch (ArithmeticException e) { caught = caught + 1; }
				k = k - 1;
			}
			return caught;
		} }`)
	high := 0
	for _, rounds := range []int32{1, 50} {
		v, err := l.CallStatic("E", "bottom", rt.IntValue(rounds))
		if err != nil || v.Int() != rounds {
			t.Fatalf("bottom(%d) answered %d, %v; want every round caught", rounds, v.Int(), err)
		}
		emptyStack(t, l, "the caught throws")
		if n := len(l.stack.frames); n != 102 {
			t.Errorf("bottom(%d) made %d frame records, want 102", rounds, n)
		}
		if high == 0 {
			high = l.stack.used
		} else if l.stack.used != high {
			t.Errorf("%d rounds took the stack %d slots high, one round %d", rounds, l.stack.used, high)
		}
	}
}

// TestLowerAbortEmptiesTheStack: a function lowering refuses, first called
// 100 frames deep, ends the call with the refusal and leaves nothing on
// the stack; the session's next call runs.
func TestLowerAbortEmptiesTheStack(t *testing.T) {
	mod := verifiedModule(t, `class A {
		static int g(int n) { return n; }
		static int f(int n) { if (n == 0) { return A.g(n); } return A.f(n - 1) + 1; }
		static int h(int n) { return n + 1; } }`)
	gi := -1
	for _, mr := range mod.Methods {
		if mr.Name == "g" {
			gi = int(mr.FuncIdx)
		}
	}
	refused := errors.New("refused")
	comp := PulledIn(mod, len(mod.Funcs), func(fi int) (*core.Func, error) {
		if fi == gi {
			return nil, refused
		}
		return mod.Funcs[fi], nil
	}, nil)
	l, err := LoadTrustedCompiled(mod, comp, rt.NewEnv(io.Discard, rt.Budget{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CallStatic("A", "f", rt.IntValue(100)); !errors.Is(err, refused) {
		t.Fatalf("f(100) ended with %v, want the refusal", err)
	}
	emptyStack(t, l, "the refusal")
	if v, err := l.CallStatic("A", "h", rt.IntValue(41)); err != nil || v.Int() != 42 {
		t.Fatalf("h(41) after the refusal answered %d, %v; want 42", v.Int(), err)
	}
	emptyStack(t, l, "h(41)")
}
