package codeserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// streamSrc has helper methods behind the entry on the wire, so the
// streaming path has a real prefix to execute early.
const streamSrc = `
class Acc {
    int n;
    Acc(int v) { n = v; }
    int add(int d) { n += d; return n; }
    int sq() { return n * n; }
}
class Main {
    static void main() {
        Acc a = new Acc(4);
        a.add(3);
        System.out.println(a.sq());
    }
}
`

// streamUnit compiles streamSrc and encodes it at the given wire
// version, returning the bytes and the expected output.
func streamUnit(t *testing.T, v2 bool) ([]byte, string) {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": streamSrc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := driver.RunModule(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 {
		return wire.EncodeModuleV2(mod, nil), want
	}
	return wire.EncodeModule(mod), want
}

// TestHTTPRunStream drives POST /run-stream end to end: the unit
// executes, the response carries the output and a content hash, and the
// admitted bytes land in the unit store (servable via GET /unit).
func TestHTTPRunStream(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			data, want := streamUnit(t, v2)
			resp, err := http.Post(ts.URL+"/run-stream?max_steps=1000000", "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("run-stream status %d: %s", resp.StatusCode, body)
			}
			rr := decodeBody[RunStreamResult](t, resp)
			if !rr.OK || rr.Output != want {
				t.Fatalf("stream run result %+v, want output %q", rr, want)
			}
			if rr.Hash == "" {
				t.Fatal("stream run returned no content hash")
			}

			// The admitted unit is cached byte-identically under its
			// wire key and servable.
			resp, err = http.Get(ts.URL + "/unit/" + rr.Hash)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("unit fetch: status %d, err %v", resp.StatusCode, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cached stream unit differs from the delivered bytes")
			}

			st := s.Stats()
			if st.UnitsCached != 1 {
				t.Fatalf("units cached = %d, want 1", st.UnitsCached)
			}
			if st.StreamRejects != 0 {
				t.Fatalf("stream rejects = %d, want 0", st.StreamRejects)
			}
			if st.WireDecodeStreamLatency.Count == 0 {
				t.Fatal("wire_decode_stream stage recorded no samples")
			}
		})
	}
}

// TestHTTPRunStreamPartialDelivery truncates the stream at every
// function boundary and at mid-varint cuts around them: every request
// must be rejected as a verify error, and afterwards NOTHING may sit in
// either cache tier — no encoded unit, no decoded module.
func TestHTTPRunStreamPartialDelivery(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	data, _ := streamUnit(t, true)
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cuts := map[int64]bool{0: true, 1: true, 5: true}
	for j := 0; j < su.NumFuncs(); j++ {
		if err := su.WaitFunc(j); err != nil {
			t.Fatal(err)
		}
		b := su.Offset() // just past function j
		for _, c := range []int64{b - 1, b, b + 1} {
			if c >= 0 && c < int64(len(data)) {
				cuts[c] = true
			}
		}
	}
	rejects := 0
	for cut := range cuts {
		resp, err := http.Post(ts.URL+"/run-stream", "application/octet-stream", bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("truncation to %d/%d bytes was accepted: %s", cut, len(data), body)
		}
		if !strings.Contains(string(body), "verify") && !strings.Contains(string(body), "rejected") {
			t.Fatalf("cut %d: unexpected rejection shape: %s", cut, body)
		}
		rejects++
	}

	st := s.Stats()
	if st.UnitsCached != 0 || st.ModulesLoaded != 0 {
		t.Fatalf("partial deliveries leaked into the caches: units=%d modules=%d",
			st.UnitsCached, st.ModulesLoaded)
	}
	if st.StreamRejects != uint64(rejects) {
		t.Fatalf("stream rejects = %d, want %d", st.StreamRejects, rejects)
	}
}

// TestHTTPRunStreamTrailingGarbage: a complete, valid unit followed by
// trailing bytes is rejected by the streaming path too — one spelling
// on the wire — and does not enter the cache even though the guest may
// already have executed.
func TestHTTPRunStreamTrailingGarbage(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	data, _ := streamUnit(t, true)
	garbled := append(bytes.Clone(data), 0x00, 0xAB)
	resp, err := http.Post(ts.URL+"/run-stream", "application/octet-stream", bytes.NewReader(garbled))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("trailing garbage accepted: %s", body)
	}
	if st := s.Stats(); st.UnitsCached != 0 {
		t.Fatalf("garbled stream cached: units=%d", st.UnitsCached)
	}
}

// TestStreamVerdict pins what rejects a streamed unit. No bytes reach the
// fourth case — a body the verifier admits and lowering refuses is a hole
// in the verifier — so it is made here: a real cursor's module, damaged
// after admission, run by the session the door runs.
func TestStreamVerdict(t *testing.T) {
	session := func(damage bool, maxSteps int64) error {
		data, _ := streamUnit(t, true)
		su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
		if err == nil {
			err = su.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		if damage {
			for _, f := range su.Mod.Funcs {
				damageBody(f)
			}
		}
		l, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, rt.NewEnv(io.Discard, rt.Budget{MaxSteps: maxSteps}, nil))
		if err == nil {
			err = l.RunMain()
		}
		return err
	}
	cut := errors.New("stream cut")
	refused, killed := session(true, 0), session(false, 3)
	if refused == nil || !errors.Is(killed, rt.ErrStepLimit) {
		t.Fatalf("fixtures: damaged module ended %v, three-step budget ended %v", refused, killed)
	}
	for _, tc := range []struct {
		name            string
		runErr, waitErr error
		want            error
	}{
		{"clean run, whole stream", nil, nil, nil},
		{"the guest's own failure is not the unit's", killed, nil, nil},
		{"the cursor's error rejects whatever the guest did", nil, cut, cut},
		{"and wins over the session's", refused, cut, cut},
		{"an admitted function lowering refuses", refused, nil, refused},
	} {
		if got := verdict(tc.runErr, tc.waitErr); got != tc.want {
			t.Errorf("%s: verdict %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunVerdict is TestStreamVerdict's twin on /run: a resident unit
// damaged after admission, in main or in what main calls and nowhere static
// init reaches. Static init runs and its snapshot is pooled; main's first
// call meets the damage, which rejects the unit — a verify error that
// errors.Is ErrUnsupported — and afterwards the store (memory and disk),
// the loader and the pool all miss it, so a rerun finds nothing. Two
// damages, one per shape a loaded unit has: a module a door handed over
// (here, the disk re-admission after a restart) is damaged in main, whose
// lowering refuses it; or the store's resident bytes are damaged past the
// entry, in the body main calls, which the cursor the loader opened over
// them no longer decodes.
func TestRunVerdict(t *testing.T) {
	files := map[string]string{"Main.tj": `
class Main {
    static int seed = boot();
    static int boot() { return 7; }
    static int next(int n) { return n + 1; }
    static void main() { System.out.println(next(seed)); }
}`}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		// damage returns the server to run the damaged unit on.
		damage func(t *testing.T, s *Server, dir string, unit *Unit) *Server
	}{
		{"handed-over module damaged in main", func(t *testing.T, _ *Server, dir string, unit *Unit) *Server {
			s := newTestServer(t, Config{CacheDir: dir}) // a restart: the unit is on disk only
			lu, _, err := s.loader.GetOrLoad(ctx, unit.Key, s.lookup)
			if err != nil {
				t.Fatal(err)
			}
			damaged := false
			for _, f := range lu.Mod.Funcs {
				if !named(lu.Mod, f, "main") {
					continue
				}
				for _, b := range f.Blocks {
					for _, in := range b.Code {
						if len(in.Args) > 0 {
							in.Args[0] = 9999 // a value the function never defines
							damaged = true
						}
					}
				}
			}
			if !damaged {
				t.Fatal("nothing to damage in main")
			}
			return s
		}},
		{"resident bytes damaged past the entry", func(t *testing.T, s *Server, _ string, unit *Unit) *Server {
			mod, err := wire.DecodeVerified(unit.Wire)
			if err != nil {
				t.Fatal(err)
			}
			next := slices.IndexFunc(mod.Funcs, func(f *core.Func) bool { return named(mod, f, "next") })
			if entry := int(mod.Methods[mod.Entry].FuncIdx); next <= entry {
				t.Fatalf("next is body %d, not past the entry %d", next, entry)
			}
			su, err := wire.DecodeVerifiedStream(bytes.NewReader(unit.Wire), wire.DecodeOptions{})
			if err == nil {
				err = su.WaitFunc(next - 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			bad := bytes.Clone(unit.Wire)
			for i := su.Offset(); i < int64(len(bad)); i++ {
				bad[i] ^= 0xff
			}
			if su, err := wire.OpenVerified(bad, nil); err != nil || su.WaitFunc(next-1) != nil || su.WaitFunc(next) == nil {
				t.Fatal("the damage does not start at next's body")
			}
			copy(unit.Wire, bad) // the store's own bytes
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestServer(t, Config{CacheDir: dir})
			unit, _, err := s.CompileUnit(ctx, files, Options{})
			if err != nil {
				t.Fatal(err)
			}
			k := unit.Key
			s = tc.damage(t, s, dir, unit)

			_, err = s.RunUnit(ctx, k, 0)
			if driver.KindOf(err) != driver.KindVerify || !errors.Is(err, errors.ErrUnsupported) {
				t.Fatalf("run of a unit damaged behind main: %v, want a verify error that is ErrUnsupported", err)
			}
			if _, ok := s.Unit(ctx, k); ok {
				t.Error("the store still serves the rejected unit")
			}
			if _, err := os.Stat(filepath.Join(dir, k.String()+".tsa")); !os.IsNotExist(err) {
				t.Errorf("the rejected unit is still on disk: %v", err)
			}
			if _, ok := s.loader.units.get(k); ok {
				t.Error("the loader still holds the rejected unit")
			}
			if warmSnapshot(s, k) != nil {
				t.Error("the pool still holds a snapshot of the rejected unit")
			}
			st := s.Stats()
			if st.Runs != 1 || st.RunErrors != 1 || st.LoadErrors != 1 || st.UnitsCached != 0 || st.ModulesLoaded != 0 || st.PoolSessions != 0 || st.PoolBuilds != 1 {
				t.Errorf("after the rejection: runs %d, run_errors %d, load_errors %d, units %d, modules %d, pooled %d (built %d)",
					st.Runs, st.RunErrors, st.LoadErrors, st.UnitsCached, st.ModulesLoaded, st.PoolSessions, st.PoolBuilds)
			}
			if _, err := s.RunUnit(ctx, k, 0); !errors.Is(err, ErrUnitNotFound) {
				t.Errorf("a second run of the rejected unit: %v, want not found", err)
			}
		})
	}
}

// TestWireVersionCacheKey: the configured wire version is part of unit
// identity — the same source compiled under v1 and v2 servers yields
// different keys and differently encoded units, and each server's unit
// decodes with the matching decoder.
func TestWireVersionCacheKey(t *testing.T) {
	k1 := KeyFor(helloFiles(), Options{Optimize: true})
	k2 := KeyFor(helloFiles(), Options{Optimize: true, WireV2: true})
	if k1 == k2 {
		t.Fatal("wire version does not affect the cache key")
	}

	s2 := newTestServer(t, Config{WireVersion: 2})
	unit, _, err := s2.CompileUnit(t.Context(), helloFiles(), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if unit.Key != k2 {
		t.Fatalf("v2 server key %s, want %s", unit.Key, k2)
	}
	if _, err := wire.DecodeModuleV1(unit.Wire); err == nil {
		t.Fatal("v2 server emitted a unit a v1-only consumer accepts")
	}
	if _, err := wire.DecodeVerified(unit.Wire); err != nil {
		t.Fatalf("v2 unit does not decode: %v", err)
	}
}

// damageBody makes f a body the verifier admitted and lowering refuses:
// every instruction's first operand names a value the function never
// defines. No bytes make one — it would be a hole in the verifier — so it
// is made in memory, after admission.
func damageBody(f *core.Func) {
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if len(in.Args) > 0 {
				in.Args[0] = 9999
			}
		}
	}
}

// TestStreamRefusedBodyRejectsOnlyWhenCalled: both run doors lower a
// function on its guest's first call and nothing else, so a body lowering
// refuses rejects the unit exactly when the guest calls it, on /run-stream
// as on /run (TestRunVerdict). The stream door's gate damages the body of
// one function as its cursor admits it; never comes on the wire before
// used, so the cursor admits it on the way to used whether or not main
// calls it. On /run the same body is damaged in the module a restarted
// server's loader was handed. A called body refused rejects the unit on
// both doors as a verify error that errors.Is ErrUnsupported, and the
// store, the loader and the pool miss it afterwards; an uncalled one
// leaves both answers the undamaged unit's.
func TestStreamRefusedBodyRejectsOnlyWhenCalled(t *testing.T) {
	files := map[string]string{"P.tj": `
class P {
    static int never(int n) { return n * n - 1; }
    static int used(int n) { return n + 1; }
    static void main() {
        int n = 3;
        if (n > 5) { System.out.println(never(n)); }
        System.out.println(used(41));
    }
}`}
	ctx := context.Background()
	dir := t.TempDir()
	unit, _, err := newTestServer(t, Config{CacheDir: dir}).CompileUnit(ctx, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := wire.DecodeVerified(unit.Wire)
	if err != nil {
		t.Fatal(err)
	}
	index := func(name string) int {
		return slices.IndexFunc(mod.Funcs, func(f *core.Func) bool { return named(mod, f, name) })
	}
	if u, m := index("never"), index("used"); u < 0 || u > m {
		t.Fatalf("never is body %d and used body %d: want never first on the wire", u, m)
	}
	want, err := newTestServer(t, Config{}).RunUnitStream(ctx, bytes.NewReader(unit.Wire), RunOptions{})
	if err != nil || want.Output != "42\n" {
		t.Fatalf("the undamaged unit: %v, output %q", err, want.Output)
	}
	t.Cleanup(func() { streamGate = func(su *wire.StreamingUnit) func(int) error { return su.WaitFunc } })

	for _, name := range []string{"never", "used"} {
		t.Run(name, func(t *testing.T) {
			damaged := 0
			streamGate = func(su *wire.StreamingUnit) func(int) error {
				return func(fi int) error {
					from := su.Ready()
					if err := su.WaitFunc(fi); err != nil {
						return err
					}
					for _, f := range su.Mod.Funcs[from:su.Ready()] {
						if named(su.Mod, f, name) {
							damageBody(f)
							damaged++
						}
					}
					return nil
				}
			}
			s := newTestServer(t, Config{})
			streamed, streamErr := s.RunUnitStream(ctx, bytes.NewReader(unit.Wire), RunOptions{})
			if damaged != 1 {
				t.Fatalf("the stream door's cursor admitted %s %d times before its guest returned, want once", name, damaged)
			}

			r := newTestServer(t, Config{CacheDir: dir}) // a restart: the unit is on disk only
			lu, _, err := r.loader.GetOrLoad(ctx, unit.Key, r.lookup)
			if err != nil {
				t.Fatal(err)
			}
			damageBody(lu.Mod.Funcs[index(name)])
			ran, runErr := r.RunUnit(ctx, unit.Key, 0)

			if name == "never" {
				if streamErr != nil || runErr != nil || streamed.RunResult != want.RunResult || ran != want.RunResult {
					t.Fatalf("an uncalled body refused:\n/run-stream %+v %v\n/run        %+v %v\nundamaged   %+v",
						streamed.RunResult, streamErr, ran, runErr, want.RunResult)
				}
				return
			}
			for door, err := range map[string]error{"/run-stream": streamErr, "/run": runErr} {
				if driver.KindOf(err) != driver.KindVerify || !errors.Is(err, errors.ErrUnsupported) {
					t.Errorf("%s, a called body refused: %v, want a verify error that is ErrUnsupported", door, err)
				}
			}
			for srv, k := range map[*Server]Key{s: KeyForWire(unit.Wire), r: unit.Key} {
				if _, ok := srv.Unit(ctx, k); ok {
					t.Error("the store serves the rejected unit")
				}
				if _, ok := srv.loader.units.get(k); ok {
					t.Error("the loader holds the rejected unit")
				}
				if warmSnapshot(srv, k) != nil {
					t.Error("the pool holds a snapshot of the rejected unit")
				}
				if st := srv.Stats(); st.UnitsCached != 0 || st.ModulesLoaded != 0 || st.PoolSessions != 0 {
					t.Errorf("after the rejection: units %d, modules %d, pooled %d", st.UnitsCached, st.ModulesLoaded, st.PoolSessions)
				}
			}
			if st := s.Stats(); st.StreamRejects != 1 {
				t.Errorf("stream rejects %d, want 1", st.StreamRejects)
			}
		})
	}
}

// named reports whether f, a body of mod, has a name (Module.FuncName,
// derived from its claim) ending in suffix.
func named(mod *core.Module, f *core.Func, suffix string) bool {
	return strings.HasSuffix(mod.FuncName(f), suffix)
}

// TestStreamRefusesEveryTailFlip: the stream door admits a v2 unit's last
// bytes in the one spelling the encoder writes, so it refuses each
// single-bit flip in the last 4 bytes of every corpus unit, at O0 and O2.
// A one-step budget ends each guest at once; the tail decides the unit
// whatever the guest did.
func TestStreamRefusesEveryTailFlip(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	for level, moduleLevel := range map[string]bool{"O0": false, "O2": true} {
		admitted, flips := 0, 0
		for _, u := range corpus.Units() {
			mod, err := driver.CompileTSASource(u.Files)
			if err == nil && moduleLevel {
				_, err = driver.OptimizeModuleOptions(ctx, mod, opt.Options{ModuleLevel: true})
			}
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			unit := wire.EncodeModuleV2(mod, nil)
			for i := len(unit) - 4; i < len(unit); i++ {
				for bit := 0; bit < 8; bit++ {
					flip := bytes.Clone(unit)
					flip[i] ^= 1 << bit
					flips++
					if _, err := s.RunUnitStream(ctx, bytes.NewReader(flip), RunOptions{MaxSteps: 1}); err == nil {
						admitted++
					}
				}
			}
		}
		if flips != 672 || admitted != 0 {
			t.Errorf("%s: the stream door admits %d of %d tail flips", level, admitted, flips)
		}
	}
}
