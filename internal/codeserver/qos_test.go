package codeserver

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"safetsa/internal/rt"
)

// TestClampBudget pins the request-over-cap folding shared by the step
// and allocation budgets.
func TestClampBudget(t *testing.T) {
	tests := []struct {
		name     string
		req, cap int64
		want     int64
	}{
		{"request under cap", 100, 1000, 100},
		{"request equals cap", 1000, 1000, 1000},
		{"request over cap is clamped", 5000, 1000, 1000},
		{"zero request gets the cap", 0, 1000, 1000},
		{"negative request gets the cap", -7, 1000, 1000},
		{"unlimited server passes request through", 100, 0, 100},
		{"unlimited server, zero request stays unlimited", 0, 0, 0},
		{"unlimited server, negative request stays unlimited", -1, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := clampBudget(tc.req, tc.cap); got != tc.want {
				t.Errorf("clampBudget(%d, %d) = %d, want %d", tc.req, tc.cap, got, tc.want)
			}
		})
	}
}

// allocBombFiles is the hostile guest PR 2 kills in-library: doubling a
// string sixty times is 2^60 bytes' worth of allocation unless the
// budget stops it.
func allocBombFiles() map[string]string {
	return map[string]string{"Main.tj": `
class Main {
    static void main() {
        String s = "xxxxxxxxxxxxxxxx";
        for (int i = 0; i < 60; i++) {
            s = s + s;
        }
        System.out.println(s.length());
    }
}`}
}

// TestRunAllocBudgetEnforcedOverHTTP is the fails-before-fix regression
// test for the headline bug: POST /run used to build its rt.Env without
// MaxAlloc, so the configured allocation budget was simply not wired to
// the production run path and the alloc bomb ran to the step limit (or
// forever) instead of dying with ErrAllocLimit. After the fix the bomb
// must die on the allocation budget and the kill must be visible in
// /metrics, not just in the per-request result.
func TestRunAllocBudgetEnforcedOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{MaxSteps: 1 << 24, MaxAllocs: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Files: allocBombFiles()})
	cr := decodeBody[CompileResponse](t, resp)

	resp = postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	rr := decodeBody[RunResult](t, resp)
	if rr.OK {
		t.Fatal("alloc bomb reported OK through POST /run")
	}
	if rr.Error != rt.ErrAllocLimit.Error() {
		t.Fatalf("alloc bomb died with %q, want %q", rr.Error, rt.ErrAllocLimit)
	}
	if rr.Allocs <= 1<<20 {
		t.Errorf("reported alloc drain %d, want > budget %d", rr.Allocs, 1<<20)
	}

	st := s.Stats()
	if st.AllocLimitKills != 1 {
		t.Errorf("alloc_limit_kills = %d, want 1", st.AllocLimitKills)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := `safetsa_guest_kills_total{reason="alloc_limit",tenant="anon"}`
	if got := promValue(t, string(body), series); got != 1 {
		t.Errorf("%s = %v, want 1", series, got)
	}
}

// TestRunRequestMaxAllocsClamp: a request may tighten the allocation
// budget below the server cap (and an over-cap ask is folded back).
func TestRunRequestMaxAllocsClamp(t *testing.T) {
	s := newTestServer(t, Config{MaxSteps: 1 << 24})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Files: allocBombFiles()})
	cr := decodeBody[CompileResponse](t, resp)

	// Tight per-request budget on an uncapped server: the request's own
	// number is what kills the bomb.
	resp = postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{MaxAllocs: 4096})
	rr := decodeBody[RunResult](t, resp)
	if rr.OK || rr.Error != rt.ErrAllocLimit.Error() {
		t.Fatalf("tight request budget: got ok=%v err=%q, want alloc kill", rr.OK, rr.Error)
	}

	// Over-cap ask on a capped server folds back to the cap.
	s2 := newTestServer(t, Config{MaxSteps: 1 << 24, MaxAllocs: 1 << 14})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp = postJSON(t, ts2.URL+"/compile", CompileRequest{Files: allocBombFiles()})
	cr = decodeBody[CompileResponse](t, resp)
	resp = postJSON(t, ts2.URL+"/run/"+cr.Hash, RunRequest{MaxAllocs: 1 << 40})
	rr = decodeBody[RunResult](t, resp)
	if rr.OK || rr.Error != rt.ErrAllocLimit.Error() {
		t.Fatalf("over-cap ask: got ok=%v err=%q, want alloc kill at server cap", rr.OK, rr.Error)
	}
	if rr.Allocs > 1<<15 {
		t.Errorf("alloc drain %d suggests the request escaped the %d cap", rr.Allocs, 1<<14)
	}
}

// TestRunDeadlineKill: the wall-clock enforcer interrupts a guest that
// outlives Config.RunTimeout, and the kill is classified "deadline", not
// "interrupt" (which stays reserved for client aborts and drains).
func TestRunDeadlineKill(t *testing.T) {
	s := newTestServer(t, Config{RunTimeout: 30 * time.Millisecond})
	ctx := context.Background()
	u, _, err := s.CompileUnit(ctx, map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunUnit(ctx, u.Key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("guest outlived its wall-clock deadline and reported OK")
	}
	if res.Error != rt.ErrInterrupted.Error() {
		t.Fatalf("deadline kill surfaced as %q, want %q", res.Error, rt.ErrInterrupted)
	}
	st := s.Stats()
	if st.DeadlineKills != 1 {
		t.Errorf("deadline_kills = %d, want 1", st.DeadlineKills)
	}
	if st.InterruptKills != 0 {
		t.Errorf("interrupt_kills = %d, want 0 (deadline must not masquerade)", st.InterruptKills)
	}
	if ts := st.Tenants[DefaultTenant]; ts.Kills["deadline"] != 1 {
		t.Errorf("tenant kill row = %+v, want one deadline kill", ts.Kills)
	}
}

// warmUnitFiles is a unit with a deliberately heavy static initializer,
// so the pooled-vs-fresh delta (and the Admits gate) has something to
// bite on.
func warmUnitFiles() map[string]string {
	return map[string]string{"Warm.tj": `
class Warm {
    static int[] table = Warm.build();
    static int build_count = 0;
    static int[] build() {
        Warm.build_count = Warm.build_count + 1;
        int[] t = new int[512];
        for (int i = 0; i < 512; i++) {
            t[i] = i * i % 8191;
        }
        return t;
    }
    static void main() {
        System.out.println(Warm.table[100]);
        System.out.println(Warm.build_count);
    }
}`}
}

// TestWarmPoolServesClones: the first run of a unit builds and publishes
// a verified snapshot; later runs are clones that must be observationally
// identical (output, steps, allocs) to the fresh first run — and to a
// pool-disabled server's runs. Recycled memory is poisoned.
func TestWarmPoolServesClones(t *testing.T) {
	poisonRecycled(t)
	pooled := newTestServer(t, Config{})
	cold := newTestServer(t, Config{PoolUnits: -1})
	ctx := context.Background()

	files := warmUnitFiles()
	pu, _, err := pooled.CompileUnit(ctx, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cu, _, err := cold.CompileUnit(ctx, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.RunUnit(ctx, cu.Key, 0)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	var results [runs]RunResult
	for i := 0; i < runs; i++ {
		if results[i], err = pooled.RunUnit(ctx, pu.Key, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < runs; i++ {
		if !results[i].OK {
			t.Fatalf("run %d failed: %s", i, results[i].Error)
		}
		if results[i] != coldRes {
			t.Errorf("pooled run %d diverged from fresh: %+v vs %+v", i, results[i], coldRes)
		}
	}

	st := pooled.Stats()
	if st.PoolBuilds != 1 {
		t.Errorf("pool_builds = %d, want 1", st.PoolBuilds)
	}
	if st.PoolHits != runs-1 || st.LoaderHits != 0 {
		t.Errorf("pool_hits = %d, loader_hits = %d, want %d and 0: a clone is a pool hit alone", st.PoolHits, st.LoaderHits, runs-1)
	}
	// A clone loads nothing, so its trace has no load span.
	if tr := pooled.tracer.Recent()[0]; len(tr.Spans) != 1 || tr.Spans[0].Name != "exec" {
		t.Errorf("a pooled run's trace: %s %+v, want exec alone", tr.Name, tr.Spans)
	}
	if st.PoolVerifyFails != 0 {
		t.Errorf("pool_verify_fails = %d, want 0", st.PoolVerifyFails)
	}
	if st.PoolSessions != 1 {
		t.Errorf("pool_sessions = %d, want 1", st.PoolSessions)
	}
	if st.Loads != 1 {
		t.Errorf("loads = %d, want 1 (clones must not re-decode)", st.Loads)
	}
	if cs := cold.Stats(); cs.PoolBuilds != 0 || cs.PoolHits != 0 || cs.PoolSessions != 0 {
		t.Errorf("pool-disabled server grew pool state: %+v", cs)
	}
}

// TestPoolDeclinesTightBudget: a request whose budget could not have
// survived static init must not be served from a clone — it runs fresh
// and dies mid-init exactly like it would on a pool-less server.
func TestPoolDeclinesTightBudget(t *testing.T) {
	s := newTestServer(t, Config{})
	cold := newTestServer(t, Config{PoolUnits: -1})
	ctx := context.Background()

	files := warmUnitFiles()
	u, _, err := s.CompileUnit(ctx, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cu, _, err := cold.CompileUnit(ctx, files, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the pool with an unbounded run.
	full, err := s.RunUnit(ctx, u.Key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.OK {
		t.Fatalf("warmup run failed: %s", full.Error)
	}
	tight := full.Steps / 4 // well below the init drain of warmUnitFiles

	got, err := s.RunUnit(ctx, u.Key, tight)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.RunUnit(ctx, cu.Key, tight)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("declined run diverged from pool-less server:\n pooled %+v\n fresh  %+v", got, want)
	}
	if got.OK || got.Error != rt.ErrStepLimit.Error() {
		t.Fatalf("tight budget run: got ok=%v err=%q, want a mid-init step kill", got.OK, got.Error)
	}
	if st := s.Stats(); st.PoolDeclines != 1 {
		t.Errorf("pool_declines = %d, want 1", st.PoolDeclines)
	}
}

// TestTenantAdmissionGate: with TenantMaxInFlight=1 a tenant's second
// concurrent run is rejected with 429 + Retry-After before any work
// happens, while other tenants are unaffected.
func TestTenantAdmissionGate(t *testing.T) {
	s := newTestServer(t, Config{TenantMaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	loop, _, err := s.CompileUnit(ctx, map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hello, _, err := s.CompileUnit(ctx, helloFiles(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy alice's single slot with an interruptible infinite run.
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan RunResult, 1)
	go func() {
		res, _ := s.RunUnitOpts(runCtx, loop.Key, RunOptions{Tenant: "alice"})
		done <- res
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.m.n[mRunsInFlight].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background run never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Same tenant, over the bound: 429 with Retry-After, kind throttled.
	resp := postJSON(t, ts.URL+"/run/"+hello.Key.String(), RunRequest{Tenant: "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice run got status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	er := decodeBody[ErrorResponse](t, resp)
	if er.Kind != "throttled" {
		t.Errorf("error kind %q, want throttled", er.Kind)
	}

	// Header-carried tenant identity hits the same gate.
	req, err := http.NewRequest("POST", ts.URL+"/run/"+hello.Key.String(), strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "alice")
	req.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("header-tenant run got status %d, want 429", resp2.StatusCode)
	}
	resp2.Body.Close()

	// A different tenant sails through.
	resp = postJSON(t, ts.URL+"/run/"+hello.Key.String(), RunRequest{Tenant: "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's run got status %d, want 200", resp.StatusCode)
	}
	rr := decodeBody[RunResult](t, resp)
	if !rr.OK {
		t.Errorf("bob's run failed: %s", rr.Error)
	}
	// The books balance while alice's slot is still held: what the 200s
	// reported is all the server has booked. The rejected runs drained
	// nothing, and the slot holder's drain is booked when it ends.
	steps, allocs := rr.Steps, rr.Allocs
	for i := 0; i < 3; i++ {
		more := decodeBody[RunResult](t, postJSON(t, ts.URL+"/run/"+hello.Key.String(), RunRequest{Tenant: "bob"}))
		steps, allocs = steps+more.Steps, allocs+more.Allocs
	}
	if st := s.Stats(); steps != st.GuestSteps || allocs != st.GuestAllocs || allocs == 0 || st.Runs != 5 {
		t.Errorf("responses sum to (%d steps, %d allocs) over 4 runs; server booked (%d, %d) over %d runs incl. the slot holder",
			steps, allocs, st.GuestSteps, st.GuestAllocs, st.Runs)
	}

	cancel()
	res := <-done
	if res.OK || res.Error != rt.ErrInterrupted.Error() {
		t.Errorf("interrupted filler run: %+v", res)
	}

	st := s.Stats()
	if st.TenantRejects != 2 {
		t.Errorf("tenant_rejects = %d, want 2", st.TenantRejects)
	}
	alice := st.Tenants["alice"]
	if alice.Rejects != 2 || alice.Runs != 1 {
		t.Errorf("alice row = %+v, want 2 rejects, 1 run", alice)
	}
	if bob := st.Tenants["bob"]; bob.Runs != 4 || bob.Rejects != 0 {
		t.Errorf("bob row = %+v, want 4 runs, 0 rejects", bob)
	}
	if alice.InFlight != 0 || st.RunsInFlight != 0 {
		t.Errorf("in-flight gauges not drained: tenant %d, global %d", alice.InFlight, st.RunsInFlight)
	}
}

// TestMultiTenantPooledStress drives the pooled runtime with 32
// concurrent clients split over four tenants and the stress corpus,
// then checks the global and per-tenant books balance.
func TestMultiTenantPooledStress(t *testing.T) {
	files, want := stressCorpus(t)
	s := newTestServer(t, Config{})
	ctx := context.Background()

	keys := make([]Key, len(files))
	for i := range files {
		u, _, err := s.CompileUnit(ctx, files[i], Options{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = u.Key
	}

	tenants := []string{"t0", "t1", "t2", "t3"}
	const clients = 32
	const perClient = 12
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ui := (c + i) % len(keys)
				res, err := s.RunUnitOpts(ctx, keys[ui], RunOptions{Tenant: tenants[c%len(tenants)]})
				if err != nil {
					errCh <- err
					return
				}
				if !res.OK {
					errCh <- fmt.Errorf("unit %d: guest failure %s", ui, res.Error)
					return
				}
				if res.Output != want[ui] {
					errCh <- fmt.Errorf("unit %d: output diverged under pooled stress", ui)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.Stats()
	total := uint64(clients * perClient)
	if st.Runs != total {
		t.Errorf("runs = %d, want %d", st.Runs, total)
	}
	if st.RunLatency.Count != total {
		t.Errorf("run histogram count = %d, want %d", st.RunLatency.Count, total)
	}
	if st.PoolVerifyFails != 0 {
		t.Errorf("pool_verify_fails = %d under stress", st.PoolVerifyFails)
	}
	if st.PoolHits+st.PoolBuilds == 0 {
		t.Error("stress ran entirely cold: no pool builds or hits")
	}
	if st.StepLimitKills+st.AllocLimitKills+st.InterruptKills+st.DeadlineKills != 0 {
		t.Errorf("clean stress produced kills: %+v", st)
	}
	var tenantRuns uint64
	var tenantSteps, tenantAllocs int64
	for name, row := range st.Tenants {
		tenantRuns += row.Runs
		tenantSteps += row.Steps
		tenantAllocs += row.Allocs
		if row.InFlight != 0 {
			t.Errorf("tenant %s in_flight = %d after drain", name, row.InFlight)
		}
	}
	if tenantRuns != st.Runs {
		t.Errorf("tenant runs sum %d != runs %d", tenantRuns, st.Runs)
	}
	if tenantSteps != st.GuestSteps || tenantAllocs != st.GuestAllocs {
		t.Errorf("tenant budget sums (%d, %d) != globals (%d, %d)",
			tenantSteps, tenantAllocs, st.GuestSteps, st.GuestAllocs)
	}
	if st.TenantRejects != 0 {
		t.Errorf("ungated stress saw %d rejects", st.TenantRejects)
	}
}

// TestBadTenantIsRefusedBeforeItsRow: a tenant id outside
// [A-Za-z0-9._:-]{1,64} gets a 400, kind parse, on both run doors, from the
// body or the header, before admission — even for a hash the store does
// not hold — and leaves no row behind in /stats or /metrics. A 900 KiB
// header id used to leave a 921 600-byte row and a 9.2 MB /metrics page.
func TestBadTenantIsRefusedBeforeItsRow(t *testing.T) {
	s := newTestServer(t, Config{})
	hello, _, err := s.CompileUnit(context.Background(), helloFiles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(path, tenant, body string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", path, strings.NewReader(body))
		if tenant != "" {
			r.Header.Set(TenantHeader, tenant)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	run, missing := "/run/"+hello.Key.String(), "/run/"+strings.Repeat("0", 64)
	for _, id := range []string{strings.Repeat("x", 900<<10), strings.Repeat("y", 65), "x\ty", "a b", "é", `t"`, "a/b"} {
		for _, w := range []*httptest.ResponseRecorder{
			serve(run, id, ""),
			serve(missing, id, ""),
			serve(run, "", fmt.Sprintf(`{"tenant":%q}`, id)),
			serve("/run-stream", id, string(hello.Wire)),
		} {
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"kind": "parse"`) {
				t.Fatalf("tenant %.20q: %d %.200s; want 400, kind parse", id, w.Code, w.Body)
			}
		}
	}
	if st := s.Stats(); len(st.Tenants) != 0 || st.Runs != 0 {
		t.Fatalf("refused ids left %d tenant rows and %d runs", len(st.Tenants), st.Runs)
	}

	// The widest id, and each byte the rule admits, runs and gets its row.
	widest := strings.Repeat("w", 64)
	for _, id := range []string{widest, "tenant-0", "A.z_9:-"} {
		if w := serve(run, id, ""); w.Code != http.StatusOK {
			t.Fatalf("tenant %q: %d %s", id, w.Code, w.Body)
		}
	}
	if st := s.Stats(); len(st.Tenants) != 3 || st.Tenants[widest].Runs != 1 {
		t.Fatalf("tenant rows %v, want one run each for 3 ids", st.Tenants)
	}
	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if page := w.Body.Len(); page > 64<<10 || !strings.Contains(w.Body.String(), `tenant="`+widest+`"`) {
		t.Errorf("the /metrics page is %d bytes; want the widest tenant's row in under 64 KiB", page)
	}
}

// TestTenantRowsFoldIntoOverflow: past maxTenants distinct ids, every new
// id is booked in the one "overflow" row, so a flood of ids grows the
// books by one row.
func TestTenantRowsFoldIntoOverflow(t *testing.T) {
	s := newTestServer(t, Config{})
	hello, _, err := s.CompileUnit(context.Background(), helloFiles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const ids = 300
	for i := range ids {
		res, err := s.RunUnitOpts(context.Background(), hello.Key, RunOptions{Tenant: fmt.Sprintf("t%d", i)})
		if err != nil || !res.OK {
			t.Fatalf("tenant t%d: %+v, %v", i, res, err)
		}
	}
	st := s.Stats()
	if len(st.Tenants) != maxTenants+1 {
		t.Fatalf("%d ids made %d rows, want %d and overflow", ids, len(st.Tenants), maxTenants)
	}
	if got := st.Tenants["overflow"].Runs; got != ids-maxTenants {
		t.Errorf("the overflow row booked %d runs, want %d", got, ids-maxTenants)
	}
	if _, ok := st.Tenants[fmt.Sprintf("t%d", maxTenants)]; ok {
		t.Errorf("tenant t%d has a row of its own past the bound", maxTenants)
	}
}
