package codeserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"testing"
	"time"

	"safetsa/internal/driver"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// sessionCase is one way a guest session can end.
type sessionCase struct {
	name  string
	paths []string // the run paths the ending exists on
	cfg   Config
	files map[string]string
	opts  RunOptions
	// mangle corrupts the unit's wire bytes before the run sees them.
	mangle func([]byte) []byte
	// holdSlot occupies the tenant's only slot during the attempt.
	holdSlot bool
	// unknown runs a hash the store does not hold.
	unknown bool
	// meanwhile acts on the session from outside once the guest runs.
	meanwhile func(s *Server, cancelRequest context.CancelFunc)

	wantErr  func(error) bool // nil: the run answers with a RunResult
	wantRuns uint64           // sessions that reached the guest
	wantOK   bool
	wantKill string
	// rejectedStream: the streamed unit was refused after admission
	// started, so it is counted and nothing of it may be cached.
	rejectedStream bool
}

const sessionTenant = "acme"

// drive performs the case's one run on the given path and returns what
// the caller of the run API saw.
func (tc *sessionCase) drive(t *testing.T, s *Server, path string) (RunResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The unit: a store entry for /run, a request body for /run-stream.
	var k Key
	var body []byte
	if path == "run" {
		u, _, err := s.CompileUnit(ctx, tc.files, Options{})
		if err != nil {
			t.Fatal(err)
		}
		k = u.Key
		if tc.mangle != nil {
			bad := tc.mangle(u.Wire)
			k = KeyForWire(bad)
			plantUnit(s.store, &Unit{Key: k, Wire: bad, Size: len(bad)})
		}
		if tc.unknown {
			k = KeyForWire([]byte("no such unit"))
		}
	} else {
		mod, err := driver.CompileTSASource(tc.files)
		if err != nil {
			t.Fatal(err)
		}
		body = wire.EncodeModuleV2(mod, nil)
		if tc.mangle != nil {
			body = tc.mangle(body)
		}
	}

	if tc.holdSlot {
		held, err := s.newSession(ctx, "run", RunOptions{Tenant: sessionTenant})
		if err != nil {
			t.Fatal(err)
		}
		defer held.release()
	}
	acted := make(chan struct{})
	go func() {
		defer close(acted)
		if tc.meanwhile == nil {
			return
		}
		for i := 0; s.m.n[mRunsInFlight].Load() == 0; i++ {
			if i > 4000 {
				t.Error("run never became in-flight")
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
		tc.meanwhile(s, cancel)
	}()
	defer func() { <-acted }()

	opts := tc.opts
	opts.Tenant = sessionTenant
	if path == "run" {
		return s.RunUnitOpts(ctx, k, opts)
	}
	sr, err := s.RunUnitStream(ctx, bytes.NewReader(body), opts)
	return sr.RunResult, err
}

// TestSessionLifecycleBooksBalance drives every way a guest session can
// end through both run paths and reads the same books after each: the
// tenant's slot and the in-flight gauge are back at zero, the global run
// count equals the tenant rows' sum, the ending is counted as exactly
// the kill it was (once, under the session's tenant, in /metrics), and a
// refused unit left nothing in the cache tiers. Every ending releases its
// session, whose chunks are poisoned here (core.PoisonRecycled), so an
// ending that kept a reference into the guest's heap past the release —
// a kill unwinding frames, a stream refused mid-body — reads junk.
func TestSessionLifecycleBooksBalance(t *testing.T) {
	poisonRecycled(t)
	both := []string{"run", "run-stream"}
	isVerify := func(err error) bool { return err != nil && driver.KindOf(err) == driver.KindVerify }
	cutTail := func(b []byte) []byte { return b[:len(b)-1] }
	cutTables := func(b []byte) []byte { return b[:5] }
	cases := []sessionCase{
		{name: "429 reject", paths: both,
			cfg: Config{TenantMaxInFlight: 1}, files: helloFiles(), holdSlot: true,
			wantErr: func(err error) bool { var b *TenantBusyError; return errors.As(err, &b) }},
		{name: "unknown hash", paths: []string{"run"}, files: helloFiles(), unknown: true,
			wantErr: func(err error) bool { return errors.Is(err, ErrUnitNotFound) }},
		// The loader reads a resident unit's tables at load and its bodies
		// as they are called (TestRunVerdict has a body damaged in memory).
		{name: "verifier reject at load", paths: []string{"run"}, files: helloFiles(),
			mangle: cutTables, wantErr: isVerify},
		{name: "stream reject in the table header", paths: []string{"run-stream"}, files: helloFiles(),
			mangle:  cutTables,
			wantErr: isVerify, rejectedStream: true},
		{name: "stream reject mid-body", paths: []string{"run-stream"}, files: helloFiles(),
			mangle: cutTail, wantErr: isVerify, wantRuns: 1, rejectedStream: true},
		{name: "step kill", paths: both,
			cfg: Config{MaxSteps: 10_000}, files: loopFiles(),
			wantRuns: 1, wantKill: "step_limit"},
		{name: "alloc kill", paths: both,
			cfg: Config{MaxSteps: 1 << 24}, files: allocBombFiles(), opts: RunOptions{MaxAllocs: 4096},
			wantRuns: 1, wantKill: "alloc_limit"},
		{name: "depth kill", paths: both,
			cfg: Config{MaxSteps: 1 << 24}, files: recFiles(),
			wantRuns: 1, wantKill: "depth_limit"},
		{name: "deadline kill", paths: both,
			cfg: Config{RunTimeout: 30 * time.Millisecond}, files: loopFiles(),
			wantRuns: 1, wantKill: "deadline"},
		{name: "shutdown interrupt", paths: both, files: loopFiles(),
			meanwhile: func(s *Server, _ context.CancelFunc) {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx) // a failed drain shows as runs_in_flight != 0
			},
			wantRuns: 1, wantKill: "interrupt"},
		{name: "client cancel", paths: both, files: loopFiles(),
			meanwhile: func(_ *Server, cancelRequest context.CancelFunc) { cancelRequest() },
			wantRuns:  1, wantKill: "interrupt"},
		{name: "clean run", paths: both, files: helloFiles(),
			wantRuns: 1, wantOK: true},
	}
	for _, tc := range cases {
		for _, path := range tc.paths {
			t.Run(path+"/"+tc.name, func(t *testing.T) {
				s := newTestServer(t, tc.cfg)
				res, err := tc.drive(t, s, path)
				switch {
				case tc.wantErr != nil:
					if !tc.wantErr(err) {
						t.Fatalf("run error = %v, not the expected rejection", err)
					}
				case err != nil:
					t.Fatalf("run error = %v, want a RunResult", err)
				case res.OK != tc.wantOK || res.Kill != tc.wantKill:
					t.Fatalf("result %+v, want ok=%v kill=%q", res, tc.wantOK, tc.wantKill)
				}

				st := s.Stats()
				if row := st.Tenants[sessionTenant]; row.InFlight != 0 || st.RunsInFlight != 0 {
					t.Errorf("not drained: tenant in_flight %d, runs_in_flight %d", row.InFlight, st.RunsInFlight)
				}
				var tenantRuns uint64
				for _, row := range st.Tenants {
					tenantRuns += row.Runs
				}
				if st.Runs != tc.wantRuns || tenantRuns != st.Runs || st.RunLatency.Count != st.Runs {
					t.Errorf("runs %d, tenant rows sum %d, run histogram %d, want %d each",
						st.Runs, tenantRuns, st.RunLatency.Count, tc.wantRuns)
				}
				wantErrors := tc.wantRuns
				if tc.wantOK {
					wantErrors = 0
				}
				if st.RunErrors != wantErrors {
					t.Errorf("run_errors = %d, want %d", st.RunErrors, wantErrors)
				}

				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				wantKills := map[string]uint64{}
				for k := rt.Kill(0); k < rt.NumKills; k++ {
					series := fmt.Sprintf(`safetsa_guest_kills_total{reason=%q,tenant=%q}`, k, sessionTenant)
					want := 0.0
					if k.String() == tc.wantKill {
						want = 1
						wantKills[tc.wantKill] = 1
					}
					if got := promValue(t, rec.Body.String(), series); got != want {
						t.Errorf("%s = %v, want %v", series, got, want)
					}
				}
				if !maps.Equal(st.Kills, wantKills) {
					t.Errorf("kills counted globally: %v, want %v", st.Kills, wantKills)
				}

				if tc.wantErr != nil && st.ModulesLoaded != 0 {
					t.Errorf("a refused run left %d decoded modules in the loader", st.ModulesLoaded)
				}
				if tc.rejectedStream && (st.UnitsCached != 0 || st.StreamRejects != 1) {
					t.Errorf("rejected stream: units cached %d (want 0), stream_rejects %d (want 1)",
						st.UnitsCached, st.StreamRejects)
				}
			})
		}
	}
}
