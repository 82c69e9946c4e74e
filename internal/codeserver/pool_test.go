package codeserver

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// freshUnit is what a compile that keeps no arena makes of files under
// opts: the pool's output, made by the package-level driver stages.
func freshUnit(t *testing.T, files map[string]string, opts Options) []byte {
	t.Helper()
	mod, err := driver.CompileTSASource(files)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Optimize || opts.ModuleOpt {
		if _, err := driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: opts.ModuleOpt}); err != nil {
			t.Fatal(err)
		}
	}
	if opts.WireV2 {
		return wire.EncodeModuleV2(mod, nil)
	}
	return wire.EncodeModule(mod)
}

// TestAbandonedStageArenaIsDropped: a compile whose stage overran its
// deadline leaves that stage running in the compile's arena, which must
// not reach the stock the next compile takes its arena from. A compile
// that succeeds does stock its arena, so the count is not empty by
// construction; under -race, an abandoned stage still writing into an
// arena the next compile reuses is a reported race.
func TestAbandonedStageArenaIsDropped(t *testing.T) {
	ctx := context.Background()
	opts := Options{Optimize: true, ModuleOpt: true, WireV2: true}
	p := NewPool(1, time.Nanosecond, &Metrics{})
	before := gives("codeserver.compile_arenas")
	for range 4 {
		if _, err := p.Compile(ctx, helloFiles(), opts); err == nil || driver.IsUserError(err) {
			t.Fatalf("want a stage timeout, got %v", err)
		}
		if n := gives("codeserver.compile_arenas"); n != before {
			t.Fatalf("an abandoned stage gave its arena back: %+v, was %+v", n, before)
		}
	}
	p.stageTimeout = 0
	want := freshUnit(t, helloFiles(), opts)
	for range 4 {
		a, err := p.Compile(ctx, helloFiles(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.wire, want) {
			t.Fatal("a compile after abandoned stages differs from a fresh compile")
		}
		before.Kept++
		if n := gives("codeserver.compile_arenas"); n != before {
			t.Fatalf("a compile that succeeded gave back %+v, want %+v: its arena, kept", n, before)
		}
	}
}

// TestPooledCompilesRecycleConcurrently: sixteen clients send store
// misses — every corpus unit and benchmark guest, at three tiers, marked
// per client so that no two requests share a key — to a server of two
// compile workers, whose arenas pass from compile to compile and client
// to client, poisoned at each release (core.PoisonRecycled). Every unit
// must be byte for byte what a compile that keeps no arena makes of the
// same sources, no compile may keep arena memory past its answer, and
// every compile gives its arena back, kept.
func TestPooledCompilesRecycleConcurrently(t *testing.T) {
	poisonRecycled(t)
	units := hotAndSmallUnits(t)
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	slices.Sort(names)
	tiers := []Options{{WireV2: true}, {Optimize: true, WireV2: true}, {Optimize: true, ModuleOpt: true, WireV2: true}}

	s := newTestServer(t, Config{Workers: 2})
	before := gives("codeserver.compile_arenas")
	const clients, perClient = 16, 6
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				n := c*perClient + i
				name, opts := names[n%len(names)], tiers[n%len(tiers)]
				files := map[string]string{}
				for f, src := range units[name] {
					files[f] = fmt.Sprintf("%s\n// client %d\n", src, c)
				}
				u, cached, err := s.CompileUnit(context.Background(), files, opts)
				if err != nil || cached {
					t.Errorf("client %d, %s: cached %v, %v", c, name, cached, err)
					return
				}
				if want := freshUnit(t, files, opts); !slices.Equal(u.Wire, want) || cap(u.Wire) != len(u.Wire) {
					t.Errorf("client %d, %s %+v: %d bytes (cap %d) differ from a fresh compile's %d", c, name, opts, len(u.Wire), cap(u.Wire), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Compiles != clients*perClient {
		t.Errorf("compiles %d, want %d", st.Compiles, clients*perClient)
	}
	if n := gives("codeserver.compile_arenas"); n.Kept-before.Kept != clients*perClient || n.Dropped != before.Dropped {
		t.Errorf("arenas given back %+v, was %+v; want every compile's, kept", n, before)
	}
}
