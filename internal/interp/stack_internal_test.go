package interp

import (
	"io"
	"strings"
	"testing"
	"unsafe"

	"safetsa/internal/core"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
)

// stackAtKill runs the module's main until the depth limit kills it and
// reports how far the Go stack had grown at that moment: the recover
// below runs on top of the dying stack, and a goroutine's stack is one
// contiguous block, so the distance between a local up here and one down
// there is what the recursion holds.
//
//go:noinline
func stackAtKill(t *testing.T, l *Loader) (used uintptr) {
	var top byte
	func() {
		defer func() {
			var deep byte
			used = uintptr(unsafe.Pointer(&top)) - uintptr(unsafe.Pointer(&deep))
			if r := recover(); r != rt.ErrDepthLimit {
				t.Errorf("ended with %v, want the depth kill", r)
			}
		}()
		l.call(l.Mod.Methods[l.Mod.Entry].FuncIdx, make([]rt.Value, 1))
	}()
	return used
}

// TestHostStackPerSlot holds rt.FrameSlots to the arithmetic of DESIGN.md
// §9: whatever an endless recursion looks like, when the depth limit
// stops it the engine has used less than one eighth of the Go stack
// ceiling (1 GB, whose overflow no recover can catch). The shapes are
// the ones that cost a host frame the most per slot charged: the
// narrowest frame, a call under a handler, and calls buried in a nest
// that costs the guest no register — flat, under try, and to the
// decoder's limit on nesting. The charge has no term in the nesting, so
// no engine may spend host stack on it: an activation nested to the
// wire's limit costs the host what the narrowest one does, within 1.5x.
func TestHostStackPerSlot(t *testing.T) {
	nest := func(open, close string, n int, body string) string {
		return strings.Repeat(open, n) + body + strings.Repeat(close, n)
	}
	guests := []struct{ name, src string }{
		{"narrow", `class P { static void f() { f(); } static void main() { f(); } }`},
		{"handler", `class P { static int f(int n) { try { return f(n+1)+1; } catch (Exception e) { return 0; } }
			static void main() { f(0); } }`},
		{"nest", `class P { static int f(boolean b) { ` + nest("if (b) { ", " }", 60, "return f(b);") + ` return 0; }
			static void main() { f(true); } }`},
		{"try nest", `class P { static int f(int n) { ` + nest("try { ", " } finally { n = n + 1; }", 30, "return f(n);") + ` }
			static void main() { f(0); } }`},
		{"nest to the wire's limit", `class P { static int f(boolean b) { ` + nest("while (b) { ", " }", 250, "return f(b);") + ` return 0; }
			static void main() { f(true); } }`},
	}
	const ceiling = 1_000_000_000 / 8
	perActivation := map[string]map[string]int64{} // guest → engine → host bytes
	for _, g := range guests {
		f, errs := parser.ParseFile("P.tj", g.src)
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		prog, errs := sema.Check(f)
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		mod, err := ssabuild.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.Verify(core.VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
		prep, err := Prepare(mod)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Compile(mod, prep)
		if err != nil {
			t.Fatal(err)
		}
		// What one activation of the recursing f holds; the kill leaves
		// almost nothing but those live.
		var frame int64
		for _, mr := range mod.Methods {
			if mr.Name == "f" {
				frame = rt.FrameSlots(mod.Funcs[mr.FuncIdx].NumValues() + 1)
			}
		}
		perActivation[g.name] = map[string]int64{}
		for _, engine := range []struct {
			name string
			load func(*rt.Env) (*Loader, error)
		}{
			{"reference", func(e *rt.Env) (*Loader, error) { return LoadTrusted(mod, e) }},
			{"prepared", func(e *rt.Env) (*Loader, error) { return LoadTrustedPrepared(mod, prep, e) }},
			{"compiled", func(e *rt.Env) (*Loader, error) { return LoadTrustedCompiled(mod, comp, e) }},
		} {
			env := rt.NewEnv(io.Discard, rt.Budget{}, nil)
			l, err := engine.load(env)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan uintptr)
			go func() { done <- stackAtKill(t, l) }() // a fresh stack: nothing of the test's on it
			used := <-done
			activation := int64(used) * frame / env.StackSlots()
			perActivation[g.name][engine.name] = activation
			t.Logf("%-24s %-9s %6.1f MiB of host stack under %d live slots: %3d B/slot, %4d B/activation",
				g.name, engine.name, float64(used)/(1<<20), env.StackSlots(), int64(used)/env.StackSlots(), activation)
			if used > ceiling {
				t.Errorf("%s on the %s engine: %d bytes of host stack at the depth kill, over %d", g.name, engine.name, used, ceiling)
			}
		}
	}
	for engine, narrow := range perActivation["narrow"] {
		if nested := perActivation["nest to the wire's limit"][engine]; 2*nested > 3*narrow {
			t.Errorf("the %s engine: an activation nested 250 deep costs %d B of host stack, a flat one %d", engine, nested, narrow)
		}
	}
}
