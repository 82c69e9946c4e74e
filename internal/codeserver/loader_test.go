package codeserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// poisonRecycled turns the recycling check on for the test: whatever goes
// back to a stock — a unit arena, a released session heap, a compile
// arena — is overwritten with junk first, and a slab's chunks are never
// handed out again, so whatever still reads one diverges.
func poisonRecycled(t testing.TB) {
	core.PoisonRecycled(true)
	t.Cleanup(func() { core.PoisonRecycled(false) })
}

// gives is what the Gives of the stock named name have done so far.
func gives(name string) core.StockCount { return core.StockCounts()[name] }

// unitArenaGives counts the unit arenas given back so far, kept or not.
func unitArenaGives() uint64 {
	c := gives("codeserver.unit_arenas")
	return c.Kept + c.Dropped
}

// warmSnapshot is the snapshot of k's unit in s's loader cache, nil when
// the cache holds no unit for k or the unit holds no snapshot.
func warmSnapshot(s *Server, k Key) *interp.Snapshot {
	if lu, ok := s.loader.units.get(k); ok {
		return lu.snapshot()
	}
	return nil
}

// TestLoadedUnitCount: a unit's holds are counted exactly. Its arena goes
// back to the stock at the last letGo and at no other, once; a unit whose
// count reached zero cannot be acquired again; and letting go of a dead
// unit is a bug that panics rather than giving the arena back twice.
func TestLoadedUnitCount(t *testing.T) {
	lu := &LoadedUnit{arena: newUnitMem()}
	lu.refs.Store(2) // as load makes it: the cache entry and the leader
	before := unitArenaGives()
	if !lu.acquire() {
		t.Fatal("acquire of a live unit failed")
	}
	lu.letGo()
	lu.letGo()
	if got := unitArenaGives() - before; got != 0 || lu.arena == nil {
		t.Fatalf("one hold left: %d arenas returned, arena kept %v", got, lu.arena != nil)
	}
	lu.letGo()
	if got := unitArenaGives() - before; got != 1 || lu.arena != nil {
		t.Fatalf("after the last letGo: %d arenas returned, arena kept %v; want 1, false", got, lu.arena != nil)
	}
	if lu.acquire() {
		t.Fatal("a dead unit was acquired")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("letting go of a dead unit did not panic")
			}
		}()
		lu.letGo()
	}()
	if got := unitArenaGives() - before; got != 1 {
		t.Errorf("%d arenas returned in all, want 1", got)
	}
}

// TestEvictedUnitReturnsItsArena: a unit the loader cache of one has pushed
// out, and no session holds, is dead, and its arena went back to the stock
// exactly once — however many units the pool lets hold a snapshot, since
// a snapshot lives in its unit and goes with it.
func TestEvictedUnitReturnsItsArena(t *testing.T) {
	for _, pool := range []int{1, 2} {
		t.Run(fmt.Sprintf("pool of %d", pool), func(t *testing.T) {
			ctx := context.Background()
			s := newTestServer(t, Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, MaxModules: 1, PoolUnits: pool})
			var keys []Key
			for _, u := range corpus.Units()[:2] {
				unit, _, err := s.CompileUnit(ctx, u.Files, Options{Optimize: true, WireV2: true})
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, unit.Key)
			}
			if res, err := s.RunUnitOpts(ctx, keys[0], RunOptions{}); err != nil || !res.OK {
				t.Fatalf("first unit: %+v, %v", res, err)
			}
			first, ok := s.loader.units.get(keys[0])
			if !ok || first.refs.Load() != 1 || first.arena == nil || first.snapshot() == nil {
				t.Fatalf("the first unit after its run: resident %v, held %d times, arena %v, snapshot %v; want the cache's hold and a snapshot",
					ok, first.refs.Load(), first.arena != nil, first.snapshot() != nil)
			}
			before := unitArenaGives()
			if res, err := s.RunUnitOpts(ctx, keys[1], RunOptions{}); err != nil || !res.OK {
				t.Fatalf("second unit: %+v, %v", res, err)
			}
			if got := unitArenaGives() - before; got != 1 || first.refs.Load() != 0 || first.arena != nil || first.acquire() || first.snapshot() != nil {
				t.Errorf("the first unit once pushed out: %d arenas returned, held %d times, arena kept %v, snapshot kept %v",
					got, first.refs.Load(), first.arena != nil, first.snapshot() != nil)
			}
			if st := s.Stats(); st.PoolSessions != 1 || st.PoolEvictions != 1 || st.PoolBuilds != 2 {
				t.Errorf("pool_sessions %d, pool_evictions %d, pool_builds %d; want the second unit's snapshot alone, the first's dropped with it",
					st.PoolSessions, st.PoolEvictions, st.PoolBuilds)
			}
		})
	}
}

// outliveFiles is a guest that spins long enough for the test to drop its
// unit from every cache, then calls a function whose body comes after
// main's, so the cursor pulls it only then.
func outliveFiles() map[string]string {
	return map[string]string{"Outlive.tj": `
class Outlive {
    static int spin(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            s = s + i % 7;
        }
        return s;
    }
    static void main() {
        int a = Outlive.spin(4000000);
        System.out.println(a);
        System.out.println(Outlive.late(a));
    }
    static String late(int x) {
        String s = "";
        for (int i = 0; i < 5; i++) {
            s = s + (x + i) + ",";
        }
        return s;
    }
}`}
}

// TestSessionOutlivesItsUnit: a session holds its unit. While its guest
// spins, other units are loaded into a loader cache and a pool of one,
// which push its unit out, snapshot and all, and its unit is forgotten;
// the guest then calls a function no session has pulled yet, through the
// cursor of a unit no cache holds. With recycled memory poisoned, its
// answer — output, steps, allocations — must be an unpooled server's.
func TestSessionOutlivesItsUnit(t *testing.T) {
	poisonRecycled(t)
	ctx := context.Background()
	budget := Config{MaxSteps: 1 << 28, MaxAllocs: corpusBudget.MaxAllocs}
	opts := Options{Optimize: true, WireV2: true}
	ref := newTestServer(t, Config{MaxSteps: budget.MaxSteps, MaxAllocs: budget.MaxAllocs, PoolUnits: -1})
	u, _, err := ref.CompileUnit(ctx, outliveFiles(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunUnitOpts(ctx, u.Key, RunOptions{})
	if err != nil || !want.OK {
		t.Fatalf("unpooled: %+v, %v", want, err)
	}

	s := newTestServer(t, Config{MaxSteps: budget.MaxSteps, MaxAllocs: budget.MaxAllocs, MaxModules: 1, PoolUnits: 1})
	if _, _, err := s.CompileUnit(ctx, outliveFiles(), opts); err != nil {
		t.Fatal(err)
	}
	var others []Key
	for _, cu := range corpus.Units()[:3] {
		unit, _, err := s.CompileUnit(ctx, cu.Files, opts)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, unit.Key)
	}
	type answer struct {
		res RunResult
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := s.RunUnitOpts(ctx, u.Key, RunOptions{})
		done <- answer{res, err}
	}()
	var lu *LoadedUnit
	eventually(t, "the guest is spinning on a unit holding the snapshot its static init published", func() bool {
		var ok bool
		lu, ok = s.loader.units.get(u.Key)
		return s.m.n[mRunsInFlight].Load() == 1 && s.m.n[mPulledFunctions].Load() > 0 && ok && lu.snapshot() != nil
	})
	for _, k := range others {
		if res, err := s.RunUnitOpts(ctx, k, RunOptions{}); err != nil || !res.OK {
			t.Fatalf("another unit: %+v, %v", res, err)
		}
	}
	s.loader.forget(u.Key)
	if lu.snapshot() != nil {
		t.Error("the unit pushed out of the loader cache kept its snapshot")
	}
	pulled := s.m.n[mPulledFunctions].Load()
	if s.m.n[mRunsInFlight].Load() != 1 {
		t.Fatal("the guest ended before its unit was dropped; spin longer")
	}
	got := <-done
	if got.err != nil || got.res != want {
		t.Errorf("the session that outlived its unit answered %+v, %v\nunpooled %+v", got.res, got.err, want)
	}
	if s.m.n[mPulledFunctions].Load() == pulled {
		t.Error("the guest pulled nothing after its unit was dropped")
	}
}

// TestFirstCallsLowerOnce: sixteen sessions make their first calls on one
// resident unit at once, so they race to lower the same functions into
// the unit's code memory. The form's lock serialises every lowering, so
// lowered_functions counts the distinct functions the guest calls,
// exactly — as many as a streaming session's gate is asked about, once
// per function called — and every answer is one unpooled run's. Run it
// under -race.
func TestFirstCallsLowerOnce(t *testing.T) {
	poisonRecycled(t)
	u, ok := corpus.ByName("BatchEnvironment") // its guest calls 11 of its 30 functions
	if !ok {
		t.Fatal("corpus unit missing")
	}
	ctx := context.Background()
	cfg := Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, PoolUnits: -1}
	ref := newTestServer(t, cfg)
	unit, _, err := ref.CompileUnit(ctx, u.Files, Options{Optimize: true, WireV2: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunUnitOpts(ctx, unit.Key, RunOptions{})
	if err != nil || !want.OK {
		t.Fatalf("reference run: %+v, %v", want, err)
	}
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(unit.Wire), wire.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	called := 0
	l, err := interp.LoadTrustedStreaming(su.Mod, func(fi int) error { called++; return su.WaitFunc(fi) }, rt.NewEnv(io.Discard, rt.Budget{}, nil))
	if err == nil {
		err = l.RunMain()
	}
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, cfg)
	if _, _, err := s.CompileUnit(ctx, u.Files, Options{Optimize: true, WireV2: true}); err != nil {
		t.Fatal(err)
	}
	const sessions = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if res, err := s.RunUnitOpts(ctx, unit.Key, RunOptions{}); err != nil || res != want {
				t.Errorf("session %d: %+v, %v\nunpooled %+v", i, res, err, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := s.Stats(); st.LoweredFunctions != uint64(called) || st.Loads != 1 || st.Runs != sessions {
		t.Errorf("%d sessions on %d loads lowered %d functions; the guest calls %d", st.Runs, st.Loads, st.LoweredFunctions, called)
	}
}

// TestColdUnitsRecycleConcurrently: sixteen clients run the small corpus
// and a unit whose statics hold a heap at once, each in its own order,
// through a loader cache of one to three units and a pool of one or two,
// so units are loaded, pushed out and let go of while sessions and clones
// still run on them, and each new unit decodes into an arena another
// released — poisoned first, with every released session heap. Every
// answer is the one a server without a pool gave; at no point do more
// units hold a snapshot than the pool allows; and once every key is
// forgotten, no unit holds one and every unit's arena went back. Run it
// under -race.
func TestColdUnitsRecycleConcurrently(t *testing.T) {
	poisonRecycled(t)
	units := map[string]map[string]string{"StaticHeap": staticHeapFiles()}
	for _, u := range corpus.Units() {
		if u.Name != "Linpack" && u.Name != "BitSieve" { // the two hot guests: steps, not loads
			units[u.Name] = u.Files
		}
	}
	opts := Options{Optimize: true, WireV2: true}
	ctx := context.Background()
	ref := newTestServer(t, Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, PoolUnits: -1})
	var names []string
	keys, want := map[string]Key{}, map[string]RunResult{}
	for name, files := range units {
		u, _, err := ref.CompileUnit(ctx, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = ref.RunUnitOpts(ctx, u.Key, RunOptions{}); err != nil || !want[name].OK {
			t.Fatalf("%s without a pool: %+v, %v", name, want[name], err)
		}
		names, keys[name] = append(names, name), u.Key
	}
	for _, row := range []struct {
		name          string
		modules, pool int
	}{
		{"loader cache of 1", 1, 1},
		{"loader cache of 2", 2, 1},
		{"loader cache of 3, pool of 2", 3, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newTestServer(t, Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, MaxModules: row.modules, PoolUnits: row.pool})
			for _, name := range names {
				if _, _, err := s.CompileUnit(ctx, units[name], opts); err != nil {
					t.Fatal(err)
				}
			}
			gave := unitArenaGives()
			stop, watched := make(chan struct{}), make(chan int)
			go func() { // the most units seen holding a snapshot at once
				most := 0
				for {
					most = max(most, s.loader.Warm())
					select {
					case <-stop:
						watched <- most
						return
					case <-time.After(50 * time.Microsecond):
					}
				}
			}()
			const clients = 16
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range names {
						name := names[(c*7+i)%len(names)]
						if res, err := s.RunUnitOpts(ctx, keys[name], RunOptions{}); err != nil || res != want[name] {
							t.Errorf("client %d, %s: %+v, %v\nunpooled %+v", c, name, res, err, want[name])
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			if most := <-watched; most > row.pool {
				t.Errorf("%d units held a snapshot at once, the pool allows %d", most, row.pool)
			}
			st := s.Stats()
			if st.Runs != uint64(clients*len(names)) || st.Loads <= uint64(len(names)) || st.PoolVerifyFails != 0 {
				t.Errorf("runs %d of %d, loads %d of %d units, pool_verify_fails %d",
					st.Runs, clients*len(names), st.Loads, len(names), st.PoolVerifyFails)
			}
			for _, k := range keys {
				s.loader.forget(k)
			}
			st = s.Stats()
			if got := unitArenaGives() - gave; st.PoolSessions != 0 || st.ModulesLoaded != 0 || got != st.Loads {
				t.Errorf("every key forgotten: pool_sessions %d, modules %d, %d arenas given back for %d loads",
					st.PoolSessions, st.ModulesLoaded, got, st.Loads)
			}
		})
	}
}

// TestDoorsShareArenasConcurrently: sixteen clients run the small corpus
// and a unit whose statics hold a heap at once, each in its own order and
// alternating the doors — /run-stream of the unit's bytes, a cold /run of
// its key through a loader cache of one unit and a pool of one — so the
// arenas of the one stock pass between stream sessions and loaded units
// while both still run, poisoned at every return, with every released
// session heap. Every answer is the one a server without a pool gave on
// /run. Run it under -race.
func TestDoorsShareArenasConcurrently(t *testing.T) {
	poisonRecycled(t)
	units := map[string]map[string]string{"StaticHeap": staticHeapFiles()}
	for _, u := range corpus.Units() {
		if u.Name != "Linpack" && u.Name != "BitSieve" { // the two hot guests: steps, not loads
			units[u.Name] = u.Files
		}
	}
	opts := Options{Optimize: true, WireV2: true}
	ctx := context.Background()
	ref := newTestServer(t, Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, PoolUnits: -1})
	s := newTestServer(t, Config{MaxSteps: corpusBudget.MaxSteps, MaxAllocs: corpusBudget.MaxAllocs, MaxModules: 1, PoolUnits: 1})
	var names []string
	keys, wires, want := map[string]Key{}, map[string][]byte{}, map[string]RunResult{}
	for name, files := range units {
		u, _, err := ref.CompileUnit(ctx, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = ref.RunUnitOpts(ctx, u.Key, RunOptions{}); err != nil || !want[name].OK {
			t.Fatalf("%s without a pool: %+v, %v", name, want[name], err)
		}
		if _, _, err := s.CompileUnit(ctx, files, opts); err != nil {
			t.Fatal(err)
		}
		names, keys[name], wires[name] = append(names, name), u.Key, u.Wire
	}
	const clients = 16
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(c*7+i)%len(names)]
				var res RunResult
				var err error
				door := "/run"
				if (c+i)%2 == 0 {
					door = "/run-stream"
					var sr RunStreamResult
					sr, err = s.RunUnitStream(ctx, bytes.NewReader(wires[name]), RunOptions{})
					if res = sr.RunResult; err == nil && sr.Hash != KeyForWire(wires[name]).String() {
						err = fmt.Errorf("answered under %q", sr.Hash)
					}
				} else {
					res, err = s.RunUnitOpts(ctx, keys[name], RunOptions{})
				}
				if err != nil || res != want[name] {
					t.Errorf("client %d, %s %s: %+v, %v\nunpooled /run %+v", c, door, name, res, err, want[name])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Runs != uint64(clients*len(names)) || st.StreamRejects != 0 || st.PoolVerifyFails != 0 {
		t.Errorf("runs %d of %d, stream_rejects %d, pool_verify_fails %d", st.Runs, clients*len(names), st.StreamRejects, st.PoolVerifyFails)
	}
}
