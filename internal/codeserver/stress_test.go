package codeserver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
)

// stressUnits are eight corpus programs spanning both groups (generated
// javac-profile classes and hand-written ones); all compile in a few
// milliseconds and terminate quickly, so the stress mix stays fast even
// under -race.
var stressUnits = []string{
	"ErrorMessage", "CompilerMember", "AmbiguousClass", "ArrayType",
	"BinaryAttribute", "Scanner", "BigDecimal", "SignedMutableBigInteger",
}

func stressCorpus(t *testing.T) ([]map[string]string, []string) {
	t.Helper()
	files := make([]map[string]string, len(stressUnits))
	want := make([]string, len(stressUnits))
	for i, name := range stressUnits {
		u, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("corpus unit %s missing", name)
		}
		files[i] = u.Files
		mod, _, err := driver.CompileTSASourceOpt(u.Files)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = driver.RunModule(mod, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return files, want
}

// TestSingleflightCompile is the acceptance check for the producer side:
// 32 concurrent requests for the same source key run the pipeline exactly
// once; everyone else either hits the cache or coalesces onto the
// in-flight compile.
func TestSingleflightCompile(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 32
	files := helloFiles()

	start := make(chan struct{})
	var wg sync.WaitGroup
	units := make([]*Unit, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			units[i], _, errs[i] = s.CompileUnit(context.Background(), files, Options{Optimize: true})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if string(units[i].Wire) != string(units[0].Wire) {
			t.Fatalf("request %d got different unit bytes", i)
		}
	}
	st := s.Stats()
	if st.Compiles != 1 {
		t.Fatalf("singleflight broken: %d compiles for one key", st.Compiles)
	}
	if st.CacheHits+st.Coalesced != n-1 {
		t.Errorf("hits %d + coalesced %d != %d", st.CacheHits, st.Coalesced, n-1)
	}
}

// TestConcurrentRunIsolation is the acceptance check for the consumer
// side: concurrent /run sessions of the same unit share one decoded
// module (decoded+verified exactly once — the wire decoder never runs on
// the hit path) yet produce identical outputs from isolated heaps.
func TestConcurrentRunIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	u, ok := corpus.ByName("BigDecimal")
	if !ok {
		t.Fatal("corpus unit missing")
	}
	unit, _, err := s.CompileUnit(context.Background(), u.Files, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 3
	var wg sync.WaitGroup
	results := make([]RunResult, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.RunUnit(context.Background(), unit.Key, 0)
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !results[i].OK {
			t.Fatalf("session %d failed: %s", i, results[i].Error)
		}
		if results[i].Output != results[0].Output {
			t.Fatalf("session %d output diverged:\n%q\nvs\n%q",
				i, results[i].Output, results[0].Output)
		}
	}
	st := s.Stats()
	if st.Loads != 1 {
		t.Errorf("module decoded %d times, want 1", st.Loads)
	}
	if st.Runs != sessions {
		t.Errorf("runs = %d, want %d", st.Runs, sessions)
	}
}

// TestStressMixedTraffic hammers one server with 32 goroutines running a
// mixed compile/fetch/run workload over 8 corpus programs. Run under
// `go test -race ./internal/codeserver/...` this is the data-race gate
// for the whole shared pipeline (driver, wire, interp, rt, corpus).
func TestStressMixedTraffic(t *testing.T) {
	files, want := stressCorpus(t)
	s := newTestServer(t, Config{CacheDir: t.TempDir()})

	const (
		workers = 32
		iters   = 12
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				i := (w + it) % len(files)
				opts := Options{Optimize: (w+it)%2 == 0}
				u, _, err := s.CompileUnit(ctx, files[i], opts)
				if err != nil {
					errc <- fmt.Errorf("worker %d compile %s: %w", w, stressUnits[i], err)
					return
				}
				switch (w + it) % 3 {
				case 0: // fetch: the stored bytes must be the compile result
					got, ok := s.Unit(context.Background(), u.Key)
					if !ok {
						errc <- fmt.Errorf("worker %d: unit %s vanished", w, u.Key)
						return
					}
					if string(got.Wire) != string(u.Wire) {
						errc <- fmt.Errorf("worker %d: unit bytes diverged", w)
						return
					}
				default: // run: output must match the one-shot pipeline
					res, err := s.RunUnit(ctx, u.Key, 0)
					if err != nil {
						errc <- fmt.Errorf("worker %d run %s: %w", w, stressUnits[i], err)
						return
					}
					if !res.OK {
						errc <- fmt.Errorf("worker %d run %s: guest error %s", w, stressUnits[i], res.Error)
						return
					}
					if res.Output != want[i] {
						errc <- fmt.Errorf("worker %d run %s: output %q, want %q",
							w, stressUnits[i], res.Output, want[i])
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := s.Stats()
	// 8 programs × 2 option sets = at most 16 distinct compiles and 16
	// decoded modules, no matter how many requests raced.
	if st.Compiles > 16 {
		t.Errorf("compiled %d times for 16 distinct keys", st.Compiles)
	}
	if st.Loads > 16 {
		t.Errorf("decoded %d times for 16 distinct keys", st.Loads)
	}
	if st.CompilesInFlight != 0 {
		t.Errorf("compiles still in flight after drain: %d", st.CompilesInFlight)
	}
	if st.CompileRequests != workers*iters {
		t.Errorf("compile requests = %d, want %d", st.CompileRequests, workers*iters)
	}

	// Metrics invariants under load: every compile request is accounted
	// for by exactly one outcome, no in-flight work survives the drain,
	// and the latency histograms saw exactly as many samples as the
	// counters say happened.
	accounted := st.CacheHits + st.DiskHits + st.Coalesced + st.Compiles + st.CompileErrors
	if accounted != st.CompileRequests {
		t.Errorf("request accounting leak: hits %d + disk %d + coalesced %d + compiles %d + errors %d = %d, want %d",
			st.CacheHits, st.DiskHits, st.Coalesced, st.Compiles, st.CompileErrors,
			accounted, st.CompileRequests)
	}
	if st.CompileErrors != 0 {
		t.Errorf("compile errors under clean stress: %d", st.CompileErrors)
	}
	if st.RunsInFlight != 0 {
		t.Errorf("runs still in flight after drain: %d", st.RunsInFlight)
	}
	if st.CompileLatency.Count != st.Compiles {
		t.Errorf("compile histogram count %d != compiles %d", st.CompileLatency.Count, st.Compiles)
	}
	// Every load opened resident bytes — one decode sample — and every
	// pull through them is one more that admitted at least one body.
	if st.DecodeLatency.Count < st.Loads || st.DecodeLatency.Count > st.Loads+st.PulledFunctions {
		t.Errorf("decode histogram count %d outside loads %d .. loads + pulled functions %d",
			st.DecodeLatency.Count, st.Loads, st.Loads+st.PulledFunctions)
	}
	if st.VerifyLatency.Count != 0 {
		t.Errorf("verify histogram count %d, want 0 (declared, unfed: admission is the one decode)", st.VerifyLatency.Count)
	}
	// Lowering is booked per run session that lowered anything, one
	// sample of each half: at least the first run of every load (its form
	// starts empty), at most every run, and never without a function.
	if st.PrepareLatency.Count != st.CompileBackendLatency.Count ||
		st.PrepareLatency.Count < st.Loads || st.PrepareLatency.Count > st.Runs ||
		st.LoweredFunctions < st.PrepareLatency.Count {
		t.Errorf("prepare count %d, compile_backend count %d, lowered functions %d, loads %d, runs %d",
			st.PrepareLatency.Count, st.CompileBackendLatency.Count, st.LoweredFunctions, st.Loads, st.Runs)
	}
	if st.RunLatency.Count != st.Runs {
		t.Errorf("run histogram count %d != runs %d", st.RunLatency.Count, st.Runs)
	}
	// Legacy cumulative keys are the histogram sums, and real work was
	// measured (guest programs executed steps and allocated).
	if st.CompileNanos != st.CompileLatency.SumNanos || st.RunNanos != st.RunLatency.SumNanos {
		t.Errorf("legacy nanos diverge from histogram sums: %+v", st)
	}
	if st.CompileNanos <= 0 || st.RunNanos <= 0 {
		t.Errorf("latency totals did not accumulate: compile %d, run %d", st.CompileNanos, st.RunNanos)
	}
	if st.GuestSteps <= 0 || st.GuestAllocs <= 0 {
		t.Errorf("guest budget accounting empty: steps %d, allocs %d", st.GuestSteps, st.GuestAllocs)
	}
	if st.StepLimitKills+st.AllocLimitKills+st.InterruptKills != 0 {
		t.Errorf("unexpected budget kills under clean stress: %+v", st)
	}
}

// TestStressSharedUnit runs 32 concurrent sessions of one cached unit,
// twice. All of them share the single decoded module and its one
// compiled form, must produce identical output and steps, and — the key
// accounting invariant — lowering is per function of the unit, never per
// run: the sessions of the first wave that lowered anything are one
// prepare and one compile_backend sample each, and the second wave, over
// a form the first filled, lowers nothing.
func TestStressSharedUnit(t *testing.T) {
	s := newTestServer(t, Config{})
	u, ok := corpus.ByName("BigDecimal")
	if !ok {
		t.Fatal("corpus unit missing")
	}
	unit, _, err := s.CompileUnit(context.Background(), u.Files, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 32
	var want RunResult
	wave := func() Stats {
		start := make(chan struct{})
		var wg sync.WaitGroup
		results := make([]RunResult, sessions)
		errs := make([]error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i], errs[i] = s.RunUnit(context.Background(), unit.Key, 0)
			}(i)
		}
		close(start)
		wg.Wait()
		if want.Output == "" {
			want = results[0]
		}
		for i := 0; i < sessions; i++ {
			if errs[i] != nil {
				t.Fatalf("session %d: %v", i, errs[i])
			}
			if !results[i].OK {
				t.Fatalf("session %d failed: %s", i, results[i].Error)
			}
			if results[i].Output != want.Output || results[i].Steps != want.Steps {
				t.Fatalf("session %d diverged: %d steps, output\n%q\nvs %d steps, output\n%q",
					i, results[i].Steps, results[i].Output, want.Steps, want.Output)
			}
		}
		return s.Stats()
	}

	st := wave()
	if st.Loads != 1 {
		t.Errorf("module loaded %d times, want 1", st.Loads)
	}
	if st.Runs != sessions {
		t.Errorf("runs = %d, want %d", st.Runs, sessions)
	}
	lowering := st.PrepareLatency.Count
	if lowering == 0 || lowering > sessions || st.CompileBackendLatency.Count != lowering {
		t.Errorf("prepare count %d, compile_backend count %d: want one each per session that lowered, 1..%d",
			lowering, st.CompileBackendLatency.Count, sessions)
	}
	if st.LoweredFunctions < lowering {
		t.Errorf("%d functions lowered by %d lowering sessions", st.LoweredFunctions, lowering)
	}
	again := wave()
	if again.LoweredFunctions != st.LoweredFunctions || again.PrepareLatency.Count != lowering || again.Loads != 1 {
		t.Errorf("a second wave over the resident unit lowered %d functions in %d sessions (loads %d)",
			again.LoweredFunctions-st.LoweredFunctions, again.PrepareLatency.Count-lowering, again.Loads)
	}
}
