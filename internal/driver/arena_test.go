package driver

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// compileIn runs the four producer stages in a, as the codeserver pool
// does, and returns a copy of the v2 encoding with the optimizer's
// statistics (zero at O0).
func compileIn(t *testing.T, a *Arena, files map[string]string, o *opt.Options) ([]byte, opt.Stats) {
	t.Helper()
	ctx := context.Background()
	prog, err := a.Frontend(ctx, files)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := a.CompileTSA(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	var st opt.Stats
	if o != nil {
		if st, err = a.Optimize(ctx, mod, *o); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(a.EncodeV2(mod)), st
}

// compileFresh is compileIn through the package-level stages, which keep
// no arena.
func compileFresh(t *testing.T, files map[string]string, o *opt.Options) ([]byte, opt.Stats) {
	t.Helper()
	mod, err := CompileTSASource(files)
	if err != nil {
		t.Fatal(err)
	}
	var st opt.Stats
	if o != nil {
		if st, err = OptimizeModuleOptions(context.Background(), mod, *o); err != nil {
			t.Fatal(err)
		}
	}
	return wire.EncodeModuleV2(mod, nil), st
}

// TestArenaCompilesMatchFresh compiles every corpus unit and benchmark
// guest at every pinned tier twice, in turn, through one arena released
// after each compile — with released memory zeroed and reused, and with
// it poisoned — and requires each compile to be byte for byte, and
// statistic for statistic, what a compile that keeps no arena makes. A
// stage that read anything a released compile left (a table not cleared,
// a pipeline that remembers its module, a node still pointed at) diverges.
func TestArenaCompilesMatchFresh(t *testing.T) {
	units := pinnedUnits(t)
	for _, poison := range []bool{false, true} {
		core.PoisonRecycled(poison)
		a, most := NewArena(), 0
		for round := range 2 {
			for _, u := range units {
				for _, tier := range pinnedTiers {
					want, wantSt := compileFresh(t, u.Files, tier.opts)
					got, st := compileIn(t, a, u.Files, tier.opts)
					if !bytes.Equal(got, want) || st != wantSt {
						t.Errorf("poison %v, round %d: %s %s through a kept arena differs from a fresh compile", poison, round, u.Name, tier.name)
					}
					held := a.Rewind()
					if held > MaxArenaBytes {
						t.Errorf("%s %s: the arena holds %d B, over MaxArenaBytes", u.Name, tier.name, held)
					}
					most = max(most, held)
				}
			}
		}
		t.Logf("poison %v: the arena held at most %d B", poison, most)
	}
	core.PoisonRecycled(false)
}

// TestArenaOverCapIsDropped: an arena that a large source grew past
// MaxArenaBytes — here by its token vector, 32 bytes a token, a token a
// source byte — is not worth keeping, and Rewind says so; the next
// arena a pool makes starts small.
func TestArenaOverCapIsDropped(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("class Big { static void main() { int x = 0;\n")
	for sb.Len() < MaxArenaBytes/24 {
		sb.WriteString("x=1;x=2;x=3;x=4;\n")
	}
	sb.WriteString("System.out.println(x); } }\n")
	a := NewArena()
	compileIn(t, a, map[string]string{"Big.tj": sb.String()}, nil)
	if held := a.Rewind(); held <= MaxArenaBytes {
		t.Fatalf("an arena holding %d B is within the cap %d", held, MaxArenaBytes)
	}
}
