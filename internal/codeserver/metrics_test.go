package codeserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/obs"
	"safetsa/internal/rt"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenMetrics is the hand-populated Metrics both golden files are
// rendered from. Every figure is set at its declaration's handle.
func goldenMetrics() *Metrics {
	m := &Metrics{}
	for h, v := range map[metric]int64{
		mCompileRequests: 100, mCacheHits: 60, mDiskHits: 5, mCompiles: 20,
		mCoalesced: 14, mCompileErrors: 1, mCompilesInFlight: 2, mEvictions: 3,
		mLoads: 18, mLoaderHits: 40, mLoadErrors: 1, mLoaderEvicted: 2,
		mLoweredFunctions: 37, mPulledFunctions: 29, mRuns: 58, mRunErrors: 4,
		mRunsInFlight: 1, mResidentStreams: 11, mGuestSteps: 123456, mGuestAllocs: 7890,
		mPoolHits: 30, mPoolBuilds: 6, mPoolDeclines: 2, mPoolEvictions: 1,
		mTenantRejects: 5,
	} {
		m.n[h].Store(v)
	}
	// Two tenants so the per-tenant families and the (reason, tenant)
	// kill matrix render with a deterministic multi-row shape.
	for name, row := range map[string][numTenantMetrics]int64{
		"acme":        {tRuns: 40, tRejects: 5, tInFlight: 1, tSteps: 100000, tAllocs: 6000},
		DefaultTenant: {tRuns: 18, tSteps: 23456, tAllocs: 1890},
	} {
		tc := m.tenant(name)
		for h, v := range row {
			tc.n[h].Store(v)
		}
	}
	acme, anon := m.tenant("acme"), m.tenant(DefaultTenant)
	acme.kills[rt.KillStepLimit].Store(2)
	acme.kills[rt.KillAllocLimit].Store(1)
	anon.kills[rt.KillInterrupt].Store(1)
	anon.kills[rt.KillDeadline].Store(1)
	// Deterministic histogram contents: one sample per stage in known
	// buckets plus one overflow sample for compile.
	m.stages[stageCompile].Observe(3 * time.Millisecond)
	m.stages[stageCompile].Observe(12 * time.Millisecond)
	m.stages[stageCompile].Observe(500 * time.Second) // overflow bucket
	m.stages[stageDecode].Observe(80 * time.Microsecond)
	m.stages[stageVerify].Observe(200 * time.Microsecond)
	m.stages[stagePrepare].Observe(50 * time.Microsecond)
	m.stages[stageCompileBackend].Observe(120 * time.Microsecond)
	m.stages[stageRun].Observe(1500 * time.Microsecond)
	m.stages[stageRun].Observe(900 * time.Nanosecond)
	return m
}

// goldenStats is the snapshot of goldenMetrics with the occupancies the
// store, loader and pool would fill in.
func goldenStats() Stats {
	st := goldenMetrics().snapshot()
	st.UnitsCached, st.ModulesLoaded, st.PoolSessions = 7, 4, 3
	st.StockGives = map[string]core.StockCount{
		"codeserver.unit_arenas": {Kept: 25, Dropped: 1},
		"rt.values":              {Kept: 240},
	}
	return st
}

// TestPrometheusGolden pins the /metrics wire contract: a hand-populated
// Metrics renders byte-identically to testdata/metrics.golden, so any
// change to metric names, label sets, bucket layout, or units shows up
// as a diff here.
func TestPrometheusGolden(t *testing.T) {
	var sb strings.Builder
	writePrometheus(&sb, goldenStats())
	checkGolden(t, "metrics.golden", sb.String())
}

// TestStatsGolden pins the /stats wire contract the same way: the
// indented JSON GET /stats serves for the same Metrics and occupancies.
func TestStatsGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, goldenStats())
	checkGolden(t, "stats.golden", rec.Body.String())
}

// TestMetricsRenderEveryStatsField: /metrics is a complete rendering of
// the Stats /stats serves. Every counter and gauge of Stats and of its
// tenant rows gets a distinct value and must come back as a sample — a
// tenant's under its tenant label, a kill under its reason too. A stage's
// *_nanos and *_latency keys, taken from a snapshot whose stages all
// differ, must be the _sum and _count of the histogram labelled with the
// stage their prefix names. The node is on every sample. What /metrics
// leaves out is listed in skip, with the reason.
func TestMetricsRenderEveryStatsField(t *testing.T) {
	skip := map[string]string{
		"kills":             "the per-reason sum over tenants; the tenant rows' kills are the samples",
		"step_limit_kills":  "legacy spelling of kills[step_limit]",
		"alloc_limit_kills": "legacy spelling of kills[alloc_limit]",
		"interrupt_kills":   "legacy spelling of kills[interrupt]",
		"deadline_kills":    "legacy spelling of kills[deadline]",
		// Of a *_latency digest only count is a sample (sum is its
		// *_nanos twin): the quantiles and overflow_count are estimates
		// over the buckets /metrics renders.
	}
	type sample struct{ key, series, value string }
	var want []sample
	next := int64(1_000_000)
	distinct := func(key string, fv reflect.Value, series string) {
		next += 1009
		switch fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(next)
		case reflect.Uint64:
			fv.SetUint(uint64(next))
		default:
			t.Fatalf("%s is a %s: render it, or skip it with a reason", key, fv.Kind())
		}
		want = append(want, sample{key, series, strconv.FormatInt(next, 10)})
	}
	jsonKey := func(f reflect.StructField) string {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		return key
	}
	stageLabel := func(key, suffix string) string {
		for _, name := range stageNames {
			if name+suffix == key {
				return `{node="n1",stage="` + name + `"}`
			}
		}
		t.Fatalf("%s names no stage", key)
		return ""
	}

	var m Metrics
	for s := range m.stages {
		for range s + 1 {
			m.stages[s].ObserveNanos(int64(s+1) * 1000)
		}
	}
	cut := m.snapshot()
	st := Stats{stages: cut.stages}
	sv, cv := reflect.ValueOf(&st).Elem(), reflect.ValueOf(cut)
	for i := 0; i < sv.NumField(); i++ {
		f, fv := sv.Type().Field(i), sv.Field(i)
		switch key := jsonKey(f); {
		case !f.IsExported() || skip[key] != "":
		case key == "node":
			st.Node = "n1"
		case strings.HasSuffix(key, "_nanos"):
			fv.Set(cv.Field(i))
			want = append(want, sample{key, "_sum" + stageLabel(key, "_nanos"),
				strconv.FormatFloat(float64(fv.Int())/1e9, 'g', -1, 64)})
		case strings.HasSuffix(key, "_latency"):
			fv.Set(cv.Field(i))
			want = append(want, sample{key, "_count" + stageLabel(key, "_latency"),
				strconv.FormatUint(fv.Interface().(obs.LatencySummary).Count, 10)})
		case key == "tenants":
			st.Tenants = map[string]TenantStats{}
			for _, tenant := range []string{"t1", "t2"} {
				ts := TenantStats{Kills: map[string]uint64{}}
				tv := reflect.ValueOf(&ts).Elem()
				for j := 0; j < tv.NumField(); j++ {
					if tkey := jsonKey(tv.Type().Field(j)); tkey != "kills" {
						distinct(tkey, tv.Field(j), `tenant="`+tenant+`"`)
					}
				}
				for k := rt.Kill(0); k < rt.NumKills; k++ {
					var n uint64
					distinct("kills", reflect.ValueOf(&n).Elem(), `reason="`+k.String()+`",tenant="`+tenant+`"`)
					ts.Kills[k.String()] = n
				}
				st.Tenants[tenant] = ts
			}
		case key == "stock_gives":
			st.StockGives = map[string]core.StockCount{}
			for _, stock := range []string{"s1", "s2"} {
				var c core.StockCount
				distinct(key, reflect.ValueOf(&c.Kept).Elem(), `stock="`+stock+`",outcome="kept"`)
				distinct(key, reflect.ValueOf(&c.Dropped).Elem(), `stock="`+stock+`",outcome="dropped"`)
				st.StockGives[stock] = c
			}
		default:
			distinct(key, fv, "")
		}
	}

	var sb strings.Builder
	writePrometheus(&sb, st)
	type line struct{ series, value string }
	var lines []line
	for _, l := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		series, value, _ := strings.Cut(l, " ")
		if !strings.Contains(series, `node="n1"`) {
			t.Errorf("sample without the node label: %s", l)
		}
		lines = append(lines, line{series, value})
	}
	for _, w := range want {
		found := false
		for _, l := range lines {
			found = found || strings.Contains(l.series, w.series) && l.value == w.value
		}
		if !found {
			t.Errorf("%s: /metrics has no sample matching %q with value %s", w.key, w.series, w.value)
		}
	}
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/codeserver -update` to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("rendering drifted from %s; if intended, "+
			"regenerate with `go test ./internal/codeserver -update`.\ngot:\n%s", path, got)
	}
}

// promValue extracts the value of one exposition line by exact
// metric-name-with-labels match.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in:\n%s", series, text)
	return 0
}

// TestDebugTracesJSONShape pins the wire contract of /debug/traces: a
// {"traces": [...]} array where a compile trace begins in the handler —
// read, key, then the store's spans, then respond — and carries the nested
// producer stages (store fill → frontend → parse/sema, ...) when it was a
// miss and no fill at all when it was a hit, a run trace carries load
// (with decode below it, and no lowering) and exec, and a run_stream trace
// names the path that decided its tail.
func TestDebugTracesJSONShape(t *testing.T) {
	s := newTestServer(t, Config{Traces: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty server: still a well-formed (empty) array.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("traces response is not JSON: %v", err)
	}
	resp.Body.Close()
	if raw.Traces == nil {
		t.Error("empty /debug/traces did not serve an array")
	}

	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	cr := decodeBody[CompileResponse](t, resp)
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	if hit := decodeBody[CompileResponse](t, resp); !hit.Cached {
		t.Fatal("second compile not served from cache")
	}
	resp = postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{})
	decodeBody[RunResult](t, resp)

	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name          string `json:"name"`
		OffsetNanos   *int64 `json:"offset_nanos"`
		DurationNanos *int64 `json:"duration_nanos"`
		Children      []span `json:"children"`
	}
	type trace struct {
		ID             uint64 `json:"id"`
		Name           string `json:"name"`
		StartUnixNanos int64  `json:"start_unix_nanos"`
		DurationNanos  int64  `json:"duration_nanos"`
		Spans          []span `json:"spans"`
	}
	var got struct {
		Traces []trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got.Traces) != 3 {
		t.Fatalf("got %d traces, want 3 (compile, compile, run)", len(got.Traces))
	}
	// Most recent first: run, then the cached compile, then the miss.
	if got.Traces[0].Name != "run" || got.Traces[1].Name != "compile" || got.Traces[2].Name != "compile" {
		t.Fatalf("trace order [%s %s %s], want [run compile compile]", got.Traces[0].Name, got.Traces[1].Name, got.Traces[2].Name)
	}
	if got.Traces[0].ID <= got.Traces[1].ID || got.Traces[1].ID <= got.Traces[2].ID {
		t.Errorf("trace IDs not increasing: %d, %d, %d", got.Traces[2].ID, got.Traces[1].ID, got.Traces[0].ID)
	}
	// The handler's own spans frame whatever the compile step opened.
	for i, want := range map[int]string{1: "read key respond", 2: "read key disk fill respond"} {
		var top []string
		for _, sp := range got.Traces[i].Spans {
			top = append(top, sp.Name)
		}
		if have := strings.Join(top, " "); have != want {
			t.Errorf("compile trace %d: top-level spans [%s], want [%s]", got.Traces[i].ID, have, want)
		}
	}

	// flatten collects span names at any depth.
	var flatten func(sps []span, into map[string][]span)
	flatten = func(sps []span, into map[string][]span) {
		for _, sp := range sps {
			into[sp.Name] = append(into[sp.Name], sp)
			flatten(sp.Children, into)
		}
	}

	compile := got.Traces[2]
	if compile.StartUnixNanos <= 0 || compile.DurationNanos < 0 {
		t.Errorf("bad compile trace header: %+v", compile)
	}
	cspans := map[string][]span{}
	flatten(compile.Spans, cspans)
	for _, want := range []string{"fill", "frontend", "parse", "sema", "ssabuild", "build", "verify", "optimize", "passes", "encode"} {
		if len(cspans[want]) == 0 {
			t.Errorf("compile trace missing span %q (have %v)", want, keys(cspans))
		}
	}
	// Nesting: parse and sema sit under frontend, not at the top level.
	var frontend *span
	var walk func(sps []span)
	walk = func(sps []span) {
		for i := range sps {
			if sps[i].Name == "frontend" {
				frontend = &sps[i]
			}
			walk(sps[i].Children)
		}
	}
	walk(compile.Spans)
	if frontend == nil {
		t.Fatal("no frontend span")
	}
	names := map[string]bool{}
	for _, c := range frontend.Children {
		names[c.Name] = true
	}
	if !names["parse"] || !names["sema"] {
		t.Errorf("frontend children = %v, want parse and sema nested inside", frontend.Children)
	}
	for _, sp := range frontend.Children {
		if sp.OffsetNanos == nil || sp.DurationNanos == nil {
			t.Errorf("span %s missing offset/duration fields", sp.Name)
		}
	}

	run := got.Traces[0]
	rspans := map[string][]span{}
	flatten(run.Spans, rspans)
	for _, want := range []string{"load", "decode", "exec"} {
		if len(rspans[want]) == 0 {
			t.Errorf("run trace missing span %q (have %v)", want, keys(rspans))
		}
	}
	if len(rspans["verify"]) != 0 {
		t.Errorf("run trace has a verify span: admission is the one decode span")
	}
	// A load lowers nothing: the session lowers what it calls, inside exec,
	// and books it in the prepare and compile_backend histograms alone.
	for _, lowering := range []string{"prepare", "compile_backend"} {
		if len(rspans[lowering]) != 0 {
			t.Errorf("run trace has a %s span (have %v)", lowering, keys(rspans))
		}
	}
	// decode nests under load.
	for _, top := range run.Spans {
		if top.Name != "load" {
			continue
		}
		n := map[string]bool{}
		for _, c := range top.Children {
			n[c.Name] = true
		}
		if !n["decode"] {
			t.Errorf("load children = %+v, want decode", top.Children)
		}
	}

	// A run_stream trace says which path decided the tail: the first stream
	// of a unit waits for the cursor to admit it and publishes it (disk,
	// fill); a re-stream of the same bytes is vouched for by the store and
	// publishes nothing.
	data, _ := streamUnit(t, true)
	for range 2 {
		resp, err := http.Post(ts.URL+"/run-stream", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody[RunStreamResult](t, resp)
	}
	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	got.Traces = nil
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var shape func(sps []span) string
	shape = func(sps []span) string {
		var parts []string
		for _, sp := range sps {
			if p := sp.Name; len(sp.Children) == 0 {
				parts = append(parts, p)
			} else {
				parts = append(parts, p+"("+shape(sp.Children)+")")
			}
		}
		return strings.Join(parts, " ")
	}
	for i, want := range []string{
		"wire_decode_stream(tail(resident)) exec",
		"wire_decode_stream(tail(wait)) exec disk fill",
	} {
		if tr := got.Traces[i]; tr.Name != "run_stream" || shape(tr.Spans) != want {
			t.Errorf("stream trace %d: %s [%s], want run_stream [%s]", i, tr.Name, shape(tr.Spans), want)
		}
	}
}

func keys[V any](m map[string][]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceRingBounded: the server retains at most Config.Traces traces.
func TestTraceRingBounded(t *testing.T) {
	s := newTestServer(t, Config{Traces: 3})
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		files := map[string]string{"A.tj": fmt.Sprintf(`
class A { static void main() { System.out.println(%d); } }`, i)}
		if _, _, err := s.CompileUnit(ctx, files, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.tracer.Recent()); got != 3 {
		t.Errorf("retained %d traces, want 3", got)
	}
}

// TestLegacyNanosMonotonic is the compatibility regression test: the
// legacy cumulative compile_nanos/decode_nanos/verify_nanos/run_nanos
// keys are now derived from the histograms but must keep behaving as
// before — nonnegative and monotonically nondecreasing across
// snapshots, increasing when work actually happens — and must equal the
// corresponding histogram sums exactly.
func TestLegacyNanosMonotonic(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	legacy := func(st Stats) [4]int64 {
		return [4]int64{st.CompileNanos, st.DecodeNanos, st.VerifyNanos, st.RunNanos}
	}
	prev := legacy(s.Stats())
	for _, v := range prev {
		if v != 0 {
			t.Fatalf("fresh server has nonzero latency totals: %v", prev)
		}
	}

	var unitKey Key
	for i := 0; i < 3; i++ {
		files := map[string]string{"M.tj": fmt.Sprintf(`
class M { static void main() { System.out.println(%d); } }`, i)}
		u, _, err := s.CompileUnit(ctx, files, Options{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		unitKey = u.Key
		if _, err := s.RunUnit(ctx, unitKey, 0); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		cur := legacy(st)
		for j, name := range []string{"compile_nanos", "decode_nanos", "verify_nanos", "run_nanos"} {
			if cur[j] < prev[j] {
				t.Errorf("iteration %d: %s went backwards: %d -> %d", i, name, prev[j], cur[j])
			}
		}
		prev = cur

		// Derivation contract: legacy totals are exactly the histogram sums.
		if st.CompileNanos != st.CompileLatency.SumNanos ||
			st.DecodeNanos != st.DecodeLatency.SumNanos ||
			st.VerifyNanos != st.VerifyLatency.SumNanos ||
			st.RunNanos != st.RunLatency.SumNanos {
			t.Errorf("legacy nanos diverge from histogram sums: %+v", st)
		}
	}
	if prev[0] <= 0 || prev[3] <= 0 {
		t.Errorf("compile/run totals did not increase after traffic: %v", prev)
	}

	// A cache hit must not move the compile total (no compile ran).
	before := s.Stats().CompileNanos
	files := map[string]string{"M.tj": `
class M { static void main() { System.out.println(2); } }`}
	if _, cached, err := s.CompileUnit(ctx, files, Options{Optimize: true}); err != nil || !cached {
		t.Fatalf("expected cache hit, got cached=%v err=%v", cached, err)
	}
	if after := s.Stats().CompileNanos; after != before {
		t.Errorf("cache hit moved compile_nanos: %d -> %d", before, after)
	}
}

// TestBudgetKillMetrics: a guest killed by the step budget shows up in
// the kill counters and the budget gauges, not only in the RunResult.
func TestBudgetKillMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	u, _, err := s.CompileUnit(ctx, map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunUnit(ctx, u.Key, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("runaway guest reported OK")
	}
	st := s.Stats()
	if st.StepLimitKills != 1 {
		t.Errorf("step_limit_kills = %d, want 1", st.StepLimitKills)
	}
	if st.GuestSteps < 5_000 {
		t.Errorf("guest_steps = %d, want >= step budget", st.GuestSteps)
	}
	if st.RunErrors != 1 {
		t.Errorf("run_errors = %d, want 1", st.RunErrors)
	}
	if st.RunsInFlight != 0 {
		t.Errorf("runs_in_flight = %d after drain", st.RunsInFlight)
	}
	if st.RunLatency.Count != 1 {
		t.Errorf("run histogram count = %d, want 1 (killed runs are still measured)", st.RunLatency.Count)
	}
}
