package codeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
	"safetsa/internal/wire"
)

const helloSrc = `
class Hello {
    static void main() {
        System.out.println("hello, " + (6 * 7));
    }
}
`

func helloFiles() map[string]string {
	return map[string]string{"Hello.tj": helloSrc}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPCompileFetchRun(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Compile.
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}
	cr := decodeBody[CompileResponse](t, resp)
	if cr.Cached {
		t.Error("first compile reported cached")
	}
	if cr.Instructions <= 0 || cr.Size <= 0 {
		t.Errorf("bad unit summary: %+v", cr)
	}
	if cr.Hash != KeyFor(helloFiles(), Options{Optimize: true}).String() {
		t.Errorf("hash mismatch: %s", cr.Hash)
	}

	// Second compile is a cache hit.
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	if cr2 := decodeBody[CompileResponse](t, resp); !cr2.Cached {
		t.Error("second compile not served from cache")
	}

	// Fetch the unit and check it is a decodable distribution unit that
	// matches a direct pipeline run.
	resp, err := http.Get(ts.URL + "/unit/" + cr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unit fetch: status %d, err %v", resp.StatusCode, err)
	}
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		t.Fatalf("served unit does not decode: %v", err)
	}
	want, err := driver.RunModule(mod, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Run.
	resp = postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{MaxSteps: 1_000_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	rr := decodeBody[RunResult](t, resp)
	if !rr.OK || rr.Output != want {
		t.Fatalf("run result %+v, want output %q", rr, want)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[Stats](t, resp)
	if st.Compiles != 1 || st.CacheHits != 1 || st.Runs != 1 || st.Loads != 1 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.UnitsCached != 1 || st.ModulesLoaded != 1 {
		t.Errorf("unexpected cache sizes: %+v", st)
	}
}

// TestHTTPRunIgnoresEngineField: a run body written for the servers that
// let a request pick an evaluator is still accepted, and the field picks
// nothing — the answer is the one a body without it gets.
func TestHTTPRunIgnoresEngineField(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cr := decodeBody[CompileResponse](t, postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles()}))
	plain := decodeBody[RunResult](t, postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{MaxSteps: 1_000_000}))
	resp := postJSON(t, ts.URL+"/run/"+cr.Hash, map[string]any{"max_steps": 1_000_000, "engine": "reference"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with an engine field: status %d", resp.StatusCode)
	}
	if got := decodeBody[RunResult](t, resp); !got.OK || got != plain {
		t.Errorf("run with an engine field answered %+v, want %+v", got, plain)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Syntax error → 400 with kind "parse".
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{
		Files: map[string]string{"Bad.tj": "class {"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error: status %d, want 400", resp.StatusCode)
	}
	if er := decodeBody[ErrorResponse](t, resp); er.Kind != "parse" {
		t.Errorf("parse error kind %q", er.Kind)
	}

	// Type error → 400 with kind "sema".
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{
		Files: map[string]string{"Bad.tj": `
class Bad { static void main() { int x = "not an int"; } }`}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sema error: status %d, want 400", resp.StatusCode)
	}
	if er := decodeBody[ErrorResponse](t, resp); er.Kind != "sema" {
		t.Errorf("sema error kind %q", er.Kind)
	}

	// Unknown unit → 404.
	var k Key
	k[0] = 0xAB
	resp = postJSON(t, ts.URL+"/run/"+k.String(), RunRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown unit: status %d, want 404", resp.StatusCode)
	}
	if er := decodeBody[ErrorResponse](t, resp); er.Kind != "not_found" {
		t.Errorf("unknown unit kind %q, want \"not_found\"", er.Kind)
	}

	// Malformed hash → 400.
	resp = postJSON(t, ts.URL+"/run/nothex", RunRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hash: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCompileAdmitsExactlyWhatRunAdmits: the producer holds the CST bound
// the decoder holds (core.MaxCSTDepth). Around it, /compile answers 200
// exactly when /run-stream admits the unit the pipeline would have shipped
// without the producer's check, and what it answers with runs on /run;
// past it, /compile is a 400 of kind parse. At the parent, 300 nested
// loops compiled to a unit no run door takes.
func TestCompileAdmitsExactlyWhatRunAdmits(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	answers := map[int]int{}
	for n := 252; n <= 258; n++ {
		files := map[string]string{"W.tj": "class W { static void main() { int i = 0; " +
			strings.Repeat("while (i < 1) { ", n) + "i = i + 1; " + strings.Repeat("}", n) +
			" System.out.println(i); } }"}
		for _, optimize := range []bool{false, true} {
			resp, err := http.Post(ts.URL+"/run-stream", "application/octet-stream",
				bytes.NewReader(uncheckedUnit(t, files, optimize)))
			if err != nil {
				t.Fatal(err)
			}
			streamed := resp.StatusCode
			resp.Body.Close()
			answers[streamed]++

			resp = postJSON(t, ts.URL+"/compile", CompileRequest{Files: files, Optimize: optimize, ModuleOpt: optimize})
			if resp.StatusCode != streamed {
				t.Errorf("%d loops, optimize %v: /compile answered %d, /run-stream of the unchecked unit %d",
					n, optimize, resp.StatusCode, streamed)
			}
			if resp.StatusCode != http.StatusOK {
				if er := decodeBody[ErrorResponse](t, resp); er.Kind != "parse" || !strings.Contains(er.Error, "nesting deeper than") {
					t.Errorf("%d loops, optimize %v: refused with %+v, want kind parse", n, optimize, er)
				}
				continue
			}
			cr := decodeBody[CompileResponse](t, resp)
			if rr := decodeBody[RunResult](t, postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{})); !rr.OK || rr.Output != "1\n" {
				t.Errorf("%d loops, optimize %v: /run of the compiled unit: %+v", n, optimize, rr)
			}
		}
	}
	if answers[http.StatusOK] == 0 || answers[http.StatusBadRequest] == 0 {
		t.Errorf("the sweep does not straddle the bound: /run-stream answers %v", answers)
	}
}

// TestModuleOptHandlerPhiRuns: at O2, a try whose handler phi is fed by a
// division by a constant compiles to a unit that runs, on both wire
// versions. The division cannot throw, but its exception edge stays: the
// decoder reads a handler-phi operand for it, and a unit written without
// one is stored by /compile and refused by /run.
func TestModuleOptHandlerPhiRuns(t *testing.T) {
	files := map[string]string{"P.tj": `
class P {
    static int f(int a, int[] arr, int i) {
        int x = 1;
        try { x = a / 2; x = x + arr[i]; } catch (Throwable e) { return x + 100; }
        return x;
    }
    static void main() {
        int[] arr = new int[3];
        System.out.println(f(7, arr, 1));
        System.out.println(f(7, arr, 5));
    }
}`}
	ctx := context.Background()
	for _, version := range []int{1, 2} {
		s := newTestServer(t, Config{WireVersion: version})
		u, _, err := s.CompileUnit(ctx, files, Options{ModuleOpt: true})
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		res, err := s.RunUnit(ctx, u.Key, 0)
		if err != nil || !res.OK || res.Output != "3\n103\n" {
			t.Errorf("v%d: %+v, %v", version, res, err)
		}
	}
}

// uncheckedUnit is the unit the producer pipeline builds for files with
// every stage but the driver's last checks, the CST bound among them.
func uncheckedUnit(t *testing.T, files map[string]string, optimize bool) []byte {
	t.Helper()
	prog, err := driver.Frontend(files)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ssabuild.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		opt.OptimizeWithOptions(mod, opt.Options{ModuleLevel: true})
	}
	return wire.EncodeModule(mod)
}

func TestGuestFailureReportedInBody(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	u, _, err := s.CompileUnit(ctx, map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunUnit(ctx, u.Key, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Error == "" {
		t.Fatalf("runaway program not reported: %+v", res)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	files := helloFiles()
	key := KeyFor(files, Options{})

	s1 := newTestServer(t, Config{CacheDir: dir})
	if _, _, err := s1.CompileUnit(context.Background(), files, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key.String()+".tsa")); err != nil {
		t.Fatalf("unit not persisted: %v", err)
	}

	// A fresh server over the same dir serves the unit without compiling.
	s2 := newTestServer(t, Config{CacheDir: dir})
	u, cached, err := s2.CompileUnit(context.Background(), files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("disk-tier unit not reported as cached")
	}
	if u.Instrs <= 0 {
		t.Errorf("disk-tier unit lost its metadata: %+v", u)
	}
	st := s2.Stats()
	if st.Compiles != 0 || st.DiskHits != 1 {
		t.Errorf("unexpected stats after disk hit: %+v", st)
	}
	res, err := s2.RunUnit(context.Background(), u.Key, 0)
	if err != nil || !res.OK {
		t.Fatalf("run after restart: %+v, %v", res, err)
	}
}

func TestStoreEviction(t *testing.T) {
	m := &Metrics{}
	// -units 1 means one: the second unit evicts the first.
	st, err := NewStore("", 1, m)
	if err != nil {
		t.Fatal(err)
	}
	first := KeyFor(map[string]string{"f": "1"}, Options{})
	second := KeyFor(map[string]string{"f": "2"}, Options{})
	for _, k := range []Key{first, second} {
		if _, _, err := st.GetOrFill(context.Background(), k, func(context.Context) (admitted, error) {
			return forged(1), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Get(context.Background(), first); ok {
		t.Error("evicted unit still resident")
	}
	if _, ok := st.Get(context.Background(), second); !ok || st.Len() != 1 {
		t.Errorf("the newer unit is not the one resident (%d resident)", st.Len())
	}
	if m.n[mEvictions].Load() != 1 {
		t.Errorf("evictions = %d, want 1", m.n[mEvictions].Load())
	}
}

func TestStageTimeout(t *testing.T) {
	// A pool with an absurdly small stage timeout must fail with an
	// internal error, not hang.
	m := &Metrics{}
	p := NewPool(1, time.Nanosecond, m)
	_, err := p.Compile(context.Background(), helloFiles(), Options{})
	if err == nil {
		t.Fatal("expected stage timeout")
	}
	if driver.IsUserError(err) {
		t.Errorf("stage timeout classified as user error: %v", err)
	}
}

// firstCallRuns runs every corpus unit at O0 and O2 through a streaming
// session of its bytes, whose gate counts the functions the guest enters,
// and then through a cold and a warm /run on a fresh server, handing check
// the stream's cursor, that count, and the /stats each run moved.
func firstCallRuns(t *testing.T, check func(name string, su *wire.StreamingUnit, entered, run int, before, after Stats)) {
	ctx := context.Background()
	for _, u := range corpus.Units() {
		for _, opts := range []Options{{}, {Optimize: true, ModuleOpt: true}} {
			s := newTestServer(t, Config{})
			unit, _, err := s.CompileUnit(ctx, u.Files, opts)
			if err != nil {
				t.Fatal(err)
			}
			su, err := wire.DecodeVerifiedStream(bytes.NewReader(unit.Wire), wire.DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			entered := 0
			gate := func(fi int) error { entered++; return su.WaitFunc(fi) }
			l, err := interp.LoadTrustedStreaming(su.Mod, gate, rt.NewEnv(io.Discard, rt.Budget{}, nil))
			if err == nil {
				err = l.RunMain()
			}
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			for run := range 2 {
				before := s.Stats()
				res, err := s.RunUnit(ctx, unit.Key, 0)
				if err != nil || !res.OK {
					t.Fatalf("%s run %d: %+v, %v", u.Name, run, res, err)
				}
				check(fmt.Sprintf("%s %+v", u.Name, opts), su, entered, run, before, s.Stats())
			}
		}
	}
}

// TestColdRunLowersOnlyWhatItCalls: a cold /run lowers exactly the
// functions its guest enters, once each — as many as the gate of a
// streaming session over the same bytes is asked about, which is once per
// function called — and a second run of the now resident unit lowers none.
// Unit arenas given back are poisoned (core.PoisonRecycled).
func TestColdRunLowersOnlyWhatItCalls(t *testing.T) {
	poisonRecycled(t)
	firstCallRuns(t, func(name string, su *wire.StreamingUnit, entered, run int, before, after Stats) {
		want := []int{entered, 0}[run]
		if got := after.LoweredFunctions - before.LoweredFunctions; got != uint64(want) {
			t.Errorf("%s run %d lowered %d functions, want %d of %d", name, run, got, want, su.NumFuncs())
		}
	})
}

// TestColdRunDecodesOnlyWhatItCalls is its decode twin: a cold /run
// decodes exactly the bodies a streaming session over the same bytes
// admits — every body up to the highest one its guest calls, and no
// further — and a second run of the now resident unit decodes none.
// Unit arenas given back are poisoned (core.PoisonRecycled).
func TestColdRunDecodesOnlyWhatItCalls(t *testing.T) {
	poisonRecycled(t)
	firstCallRuns(t, func(name string, su *wire.StreamingUnit, _, run int, before, after Stats) {
		want := []int{su.Ready(), 0}[run]
		if got := after.PulledFunctions - before.PulledFunctions; got != uint64(want) {
			t.Errorf("%s run %d pulled %d bodies, want %d of %d", name, run, got, want, su.NumFuncs())
		}
		if got := after.Loads - before.Loads; got != uint64(1-run) {
			t.Errorf("%s run %d: %d loads", name, run, got)
		}
	})
}
