package codeserver

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/fuzzseed"
)

// resolvedOptionRows is every option row ResolveOptions can return:
// ModuleOpt implies Optimize, and the wire version is the server's.
var resolvedOptionRows = []Options{
	{},
	{Optimize: true},
	{Optimize: true, ModuleOpt: true},
	{WireV2: true},
	{Optimize: true, WireV2: true},
	{Optimize: true, ModuleOpt: true, WireV2: true},
}

// TestKeyForGolden pins the content address itself: the hex of KeyFor for
// one fixed two-file set under every resolved option row, computed by the
// tree before SourceSet existed. A key that moves re-keys every disk
// tier, fleet ring and /run/{hash} URL in the field.
func TestKeyForGolden(t *testing.T) {
	files := map[string]string{
		"Main.tj": "class Main {\n\tstatic void main() { System.out.println(\"<a&b>\" + Util.twice(21)); }\n}\n",
		"Util.tj": "class Util { static int twice(int x) { return x * 2; } } //   café\n",
	}
	want := []string{
		"a7a712b047830f57dcc0d31be250065ac1897f93146153aaaa3e66ce160291f0",
		"dcde157f31a2671f9f50d50872d55d63b84df69ba22bee76c1c19eedb5724dcc",
		"58c2310a483270c2918db83dce3e18d860e56d22e72670436f6242195cb28ce3",
		"592d02fe7a21ce526866c400815c92fe2d8f6b84a9336906e6b72ca9f619a11c",
		"5b7b3603e9675c7472a12edd36376b9cfa20dca779b7abf45703ddb92662f94d",
		"f60163ecdaecd27be24be501c472d471448d7c3ec7a5086e7a4fba7b97aeec3a",
	}
	for i, o := range resolvedOptionRows {
		if got := KeyFor(files, o).String(); got != want[i] {
			t.Errorf("KeyFor(%+v) = %s, want %s", o, got, want[i])
		}
	}
}

// legacyKeyFor is KeyFor as the parent tree wrote it, before SourceSet:
// sorted names, one hash.Write per length and per string.
func legacyKeyFor(files map[string]string, opts Options) Key {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)

	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	writeStr := func(s string) {
		n := binary.PutUvarint(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:n])
		h.Write([]byte(s))
	}
	writeStr(pipelineVersion)
	for _, on := range []bool{opts.Optimize, opts.ModuleOpt, opts.WireV2} {
		if on {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, n := range names {
		writeStr(n)
		writeStr(files[n])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// keyedUnits is every corpus unit plus the repository benchmark's four
// guest programs, and one set with several files.
func keyedUnits(t testing.TB) []corpus.Unit {
	t.Helper()
	units := corpus.Units()
	for _, name := range []string{"Dispatch", "Except", "ListWalk", "Sort"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "guests", name+".tj"))
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, corpus.Unit{Name: "guest/" + name, Files: map[string]string{name + ".tj": string(src)}})
	}
	many := map[string]string{}
	for _, u := range units[:5] {
		maps.Copy(many, u.Files)
	}
	many[""] = ""
	return append(units, corpus.Unit{Name: "several-files", Files: many})
}

// spell writes a compile request body by hand: the members and files in
// an order rng picks, whitespace between tokens, and every newline of
// every text spelled as newline says: the two-character escape or one of
// the two spellings of its code point.
func spell(files map[string]string, o Options, rng *rand.Rand, newline string) []byte {
	str := func(s string) string {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			q, _ := json.Marshal(l)
			lines[i] = string(q[1 : len(q)-1])
		}
		return `"` + strings.Join(lines, newline) + `"`
	}
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var fs []string
	for _, n := range names {
		fs = append(fs, str(n)+" :\t"+str(files[n]))
	}
	members := []string{
		`"files": {` + strings.Join(fs, " ,\r\n") + ` }`,
		`"optimize" : ` + strconv.FormatBool(o.Optimize),
		`"module_opt":` + strconv.FormatBool(o.ModuleOpt),
	}
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return []byte(" {\n" + strings.Join(members, ", ") + "}\n")
}

// TestSourceSetKeyIsKeyFor: the key a scanned request body hashes to is
// the key KeyFor gives the same files as a map, and both are the key the
// parent tree computed — over the corpus and the benchmark's guests, every
// resolved option row, members and files in shuffled order, and the same
// text spelled three ways.
func TestSourceSetKeyIsKeyFor(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, u := range keyedUnits(t) {
		for _, o := range resolvedOptionRows {
			want := legacyKeyFor(u.Files, o)
			if got := KeyFor(u.Files, o); got != want {
				t.Fatalf("%s %+v: KeyFor = %s, the pre-SourceSet routine gives %s", u.Name, o, got, want)
			}
			marshaled, err := json.Marshal(CompileRequest{Files: u.Files, Optimize: o.Optimize, ModuleOpt: o.ModuleOpt})
			if err != nil {
				t.Fatal(err)
			}
			bodies := map[string][]byte{"json.Marshal": marshaled}
			for _, newline := range []string{`\n`, `\u000a`, `\u000A`} {
				bodies["spelled "+newline] = spell(u.Files, o, rng, newline)
			}
			for how, body := range bodies {
				ss, opts, ok := scanCompileRequest(body, new(requestMem))
				if !ok {
					t.Fatalf("%s (%s): the scanner declined a canonical body", u.Name, how)
				}
				opts.WireV2 = o.WireV2 // the server's, never the request's
				if opts != o {
					t.Fatalf("%s (%s): scanned options %+v, want %+v", u.Name, how, opts, o)
				}
				if got := ss.Key(o); got != want {
					t.Errorf("%s %+v (%s): SourceSet.Key = %s, KeyFor = %s", u.Name, o, how, got, want)
				}
			}
		}
	}
}

// compileRequestSeeds are FuzzCompileRequest's seeds, which double as the
// rows of TestCompileRequestSeedVerdicts: the shapes json reads
// differently from a plain reading (re-cased, escaped and duplicate
// members, nulls, surrogates, invalid UTF-8) and the malformed ones, each
// with whether the scanner takes it and the status the parent tree's
// handler gave it (recorded there, not here), and the unit hash it is
// answered with, which moves with the pipeline version.
var compileRequestSeeds = []struct {
	name   string
	body   string
	scans  bool
	status int
	hash   string
}{
	{"json_marshal_html_escaped", `{"files":{"Hello.tj":"class Hello {\n\tstatic void main() { System.out.println(\"\u003ca\u0026b\u003e\u2028\" + (6 * 7)); }\n}\n"},"optimize":true,"module_opt":false}`,
		true, 200, "b49db68f24dc18dd2231039a5aadd44be8dc5b09066e4e725c2dc1f6ffd66fcb"},
	{"members_reordered_spaced", "  {\r\n\t\"module_opt\" : true ,\n \"files\" : { \"B.tj\" : \"class B { }\" , \"A.tj\" : \"class A { static void main() { } }\" } }\n ",
		true, 200, "b4a02554e7bfef797c410eed961e36600cf47bedf769dbeddc8f354f688c2123"},
	{"escapes_all_eight", `{"files":{"A\/.tj":"class A { static void main() { } } /* \"\\\/\b\f\n\r\t\u00e9\u000A */"}}`,
		true, 200, "8a48cf52617fc652dd584506689ef7fb597263d66a70f73ad35c6d346a91e829"},
	{"escaped_member_name", `{"fil\u0065s":{"A.tj":"class A { static void main() { } }"}}`,
		true, 200, "d8c78ae5b29357dea88fdc747d5206aefa44f0e09f96b0bab689a48c6162f0e9"},
	{"empty_object", `{}`, true, 400, ""},
	{"surrogate_pair", `{"files":{"A.tj":"class A { static void main() { System.out.println(\"\ud83d\ude00\"); } }"}}`,
		false, 200, "02a3885573adc23226730f98f47aa8064dcb45fd423732fed662154bbc608f69"},
	{"lone_surrogate", `{"files":{"A.tj":"class A { static void main() { System.out.println(\"\ud800\"); } }"}}`,
		false, 200, "e14efff7d3e122454bfd76b95270d6c5cc67f59d52564a2fda730bf5c9594473"},
	{"invalid_utf8", "{\"files\":{\"A.tj\":\"class A { static void main() { } } // \xff\xc0\xaf\"}}",
		false, 200, "494dacb0e4ad76730a348ec8a29b90a8908887967b18d99a19d47fb409d004ec"},
	{"duplicate_file_name", `{"files":{"A.tj":"class A { }","A.tj":"class A { static void main() { } }"}}`,
		false, 200, "d8c78ae5b29357dea88fdc747d5206aefa44f0e09f96b0bab689a48c6162f0e9"},
	{"duplicate_files_member", `{"files":{"A.tj":"class A { static void main() { } }"},"files":{"B.tj":"class B { }"}}`,
		false, 200, "34b428c482d060a447d8a74fe8f65497ce9c52d7b64892b1fae574c9a15d617c"},
	{"duplicate_optimize", `{"optimize":false,"files":{"A.tj":"class A { static void main() { } }"},"optimize":true}`,
		false, 200, "c3a76d946db7c426415c6097b68077cebb050381a94cfa2d4073c0ae918550aa"},
	{"uppercase_member", `{"FILES":{"A.tj":"class A { static void main() { } }"},"Optimize":true}`,
		false, 200, "c3a76d946db7c426415c6097b68077cebb050381a94cfa2d4073c0ae918550aa"},
	{"unknown_member", `{"files":{"A.tj":"class A { static void main() { } }"},"engine":"compiled"}`,
		false, 200, "d8c78ae5b29357dea88fdc747d5206aefa44f0e09f96b0bab689a48c6162f0e9"},
	{"optimize_null", `{"files":{"A.tj":"class A { static void main() { } }"},"optimize":null}`,
		false, 200, "d8c78ae5b29357dea88fdc747d5206aefa44f0e09f96b0bab689a48c6162f0e9"},
	{"files_null", `{"files":null,"optimize":true}`, false, 400, ""},
	{"top_level_null", `null`, false, 400, ""},
	{"raw_control_byte", "{\"files\":{\"A.tj\":\"class A { }\x01\"}}", false, 400, ""},
	{"number_for_string", `{"files":{"A.tj":42}}`, false, 400, ""},
	{"trailing_garbage", `{"files":{"A.tj":"class A { static void main() { } }"}} x`, false, 400, ""},
	{"trailing_comma", `{"files":{"A.tj":"class A { static void main() { } }",}}`, false, 400, ""},
	{"empty_body", ``, false, 400, ""},
	{"unterminated_string", `{"files":{"A.tj":"class A {`, false, 400, ""},
	{"bad_escape", `{"files":{"A.tj":"class A { } \q"}}`, false, 400, ""},
	{"deep_nesting_unknown", `{"files":{"A.tj":"class A { static void main() { } }"},"x":` +
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false, 400, ""},
}

// parentAnswer is what the handler did with a body before the scanner
// existed, up to the compile step: json.Unmarshal into a CompileRequest
// and the two refusals that can follow.
func parentAnswer(body []byte) (req CompileRequest, refusal string) {
	if err := json.Unmarshal(body, &req); err != nil {
		return req, "bad request body: " + err.Error()
	}
	if len(req.Files) == 0 {
		return req, "codeserver: empty source set"
	}
	return req, ""
}

// TestCompileRequestSeedVerdicts: every seed of FuzzCompileRequest gets
// from POST /compile the status and unit hash the parent tree's handler
// gave it, a refusal carries the parent's text, and the scanner takes
// exactly the seeds in the canonical shape.
func TestCompileRequestSeedVerdicts(t *testing.T) {
	for _, want := range compileRequestSeeds {
		name, body := want.name, []byte(want.body)
		if _, _, ok := scanCompileRequest(body, new(requestMem)); ok != want.scans {
			t.Errorf("%s: scanner accepts = %v, want %v", name, ok, want.scans)
		}
		rec := httptest.NewRecorder()
		newTestServer(t, Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/compile", bytes.NewReader(body)))
		if rec.Code != want.status {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, want.status, rec.Body)
			continue
		}
		if want.status == http.StatusOK {
			var cr CompileResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || cr.Hash != want.hash {
				t.Errorf("%s: hash %s (err %v), want %s", name, cr.Hash, err, want.hash)
			}
			continue
		}
		var er ErrorResponse
		_, refusal := parentAnswer(body)
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != "parse" || er.Error != refusal {
			t.Errorf("%s: answered %+v (err %v), want kind parse, error %q", name, er, err, refusal)
		}
	}
}

// FuzzCompileRequest holds the scanner to the reference parser. Whatever
// the scanner accepts, json.Unmarshal accepts with the same files and
// flags, and the scanned views hash to KeyFor of that map; and whether it
// accepts or declines, the compile step behind the handler is handed
// exactly what the parent's handler would have handed it, or the request
// is refused in the parent's words. Each input is scanned in request
// memory another body dirtied — several files, escapes in names and texts
// — and gave back under core.PoisonRecycled, as the handler's is.
func FuzzCompileRequest(f *testing.F) {
	var seeds []fuzzseed.Seed
	for _, s := range compileRequestSeeds {
		seeds = append(seeds, fuzzseed.Seed{Name: "seed_" + s.name, Data: []byte(s.body)})
	}
	fuzzseed.Add(f, seeds)
	s, err := New(Config{WireVersion: 2, Traces: 1})
	if err != nil {
		f.Fatal(err)
	}
	poisonRecycled(f)
	dirt, err := json.Marshal(CompileRequest{Files: map[string]string{
		"A\tj": strings.Repeat("<&>\n", 64), "B.tj": strings.Repeat("class B { }\n", 64), "C\"tj": "\u2028"}})
	if err != nil {
		f.Fatal(err)
	}
	m := new(requestMem)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, refusal := parentAnswer(body)
		bad := strings.HasPrefix(refusal, "bad request body: ")
		want := s.ResolveOptions(Options{Optimize: req.Optimize, ModuleOpt: req.ModuleOpt})

		m.body = append(m.body[:0], dirt...)
		if _, _, ok := scanCompileRequest(m.body, m); !ok {
			t.Fatal("the scanner declined the dirtying body")
		}
		m.Rewind()
		m.body = append(m.body, body...)
		if ss, opts, ok := scanCompileRequest(m.body, m); ok {
			if bad {
				t.Fatalf("the scanner accepted what json refuses: %s", refusal)
			}
			if got := ss.Files(); !maps.Equal(got, req.Files) {
				t.Fatalf("scanned files %q, json's %q", got, req.Files)
			}
			if opts.Optimize != req.Optimize || opts.ModuleOpt != req.ModuleOpt {
				t.Fatalf("scanned flags %+v, json's %+v", opts, req)
			}
			if got, ref := ss.Key(want), legacyKeyFor(req.Files, want); got != ref {
				t.Fatalf("SourceSet.Key = %s, the pre-SourceSet routine gives %s", got, ref)
			}
		}

		var handed *CompileRequest
		var key Key
		var resolved Options
		h := s.CompileHandler(func(_ context.Context, k Key, src SourceSet, opts Options) (*Unit, bool, error) {
			handed = &CompileRequest{Files: src.Files(), Optimize: opts.Optimize, ModuleOpt: opts.ModuleOpt}
			key, resolved = k, opts
			return &Unit{}, false, nil
		}, func(http.ResponseWriter, *Unit, Options, bool) {})
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/compile", bytes.NewReader(body)))
		if bad {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != 400 || er.Kind != "parse" || er.Error != refusal {
				t.Fatalf("answered %d %+v (err %v), want 400 parse %q", rec.Code, er, err, refusal)
			}
			if handed != nil {
				t.Fatal("a refused request reached the compile step")
			}
			return
		}
		if handed == nil {
			t.Fatalf("a request json accepts was answered %d %s", rec.Code, rec.Body)
		}
		if !maps.Equal(handed.Files, req.Files) || resolved != want {
			t.Fatalf("the compile step was handed %q %+v, want %q %+v", handed.Files, resolved, req.Files, want)
		}
		if ref := legacyKeyFor(req.Files, want); key != ref {
			t.Fatalf("the compile step was handed key %s, want %s", key, ref)
		}
	})
}

// closedEarly is the body of a request whose sender promised more than it
// sent and hung up: what arrived, then the error net/http reports.
type closedEarly struct{ sent io.Reader }

func (c closedEarly) Read(p []byte) (int, error) {
	n, err := c.sent.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (closedEarly) Close() error { return nil }

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	_, bytes := leastAllocated(1, fn)
	return bytes
}

// leastAllocated runs fn n times and reports the fewest objects and the
// fewest bytes one run allocated. The least, not the mean: a sync.Pool
// the collector (or the race detector) emptied between two runs costs the
// next one an allocation that is not fn's.
func leastAllocated(n int, fn func()) (objects, bytes uint64) {
	objects, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < n; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestCompileDeclaredLengthAllocatesNothing: a request may declare 8 MiB
// and deliver one byte. The body buffer grows with what arrives — the
// declared length only picks a starting capacity, capped at bodyPresize —
// and the scanner's unescape buffer is bounded by the bytes it scans, so
// neither can be sized by a sender's say-so.
func TestCompileDeclaredLengthAllocatesNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := httptest.NewRequest("POST", "/compile", nil)
	req.Body = closedEarly{strings.NewReader("{")}
	req.ContentLength = 8 << 20
	rec := httptest.NewRecorder()
	got := allocatedBy(func() { h.ServeHTTP(rec, req) })
	if rec.Code/100 == 2 {
		t.Errorf("a one-byte body answered %d", rec.Code)
	}
	if got >= 128<<10 {
		t.Errorf("a request declaring 8 MiB and delivering 1 byte allocated %d bytes", got)
	}
	if n := s.Stats().CompileRequests; n != 0 {
		t.Errorf("compile_requests = %d for a request that never reached the compile step", n)
	}

	// Every file text needs unescaping; the buffer they share is one
	// allocation no larger than the body.
	body, err := json.Marshal(CompileRequest{Files: map[string]string{
		"A.tj": strings.Repeat("class A { }\n", 4000), "B.tj": strings.Repeat("<&>\n", 4000)}})
	if err != nil {
		t.Fatal(err)
	}
	m := new(requestMem)
	got = allocatedBy(func() {
		if _, _, ok := scanCompileRequest(body, m); !ok {
			t.Error("the scanner declined json.Marshal's own output")
		}
	})
	if limit := uint64(len(body)) + 16<<10; got > limit { // a size class above, and the views
		t.Errorf("scanning a %d-byte body allocated %d bytes, want at most %d", len(body), got, limit)
	}
}

// TestCompileBodyLimits: the 413 and the 400s that turn a request away
// before the compile step, and the starting capacity of the body buffer.
func TestCompileBodyLimits(t *testing.T) {
	s := newTestServer(t, Config{MaxSourceBytes: 64})
	h := s.Handler()
	post := func(body string) (int, ErrorResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/compile", strings.NewReader(body)))
		var er ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &er)
		return rec.Code, er
	}
	fit := `{"files":{"A.tj":"class A { static void main() { } }"}}`
	if code, er := post(fit + strings.Repeat(" ", 64-len(fit))); code != http.StatusOK {
		t.Errorf("a body of exactly MaxSourceBytes answered %d %+v", code, er)
	}
	if code, er := post(fit + strings.Repeat(" ", 65-len(fit))); code != http.StatusRequestEntityTooLarge ||
		er.Kind != "parse" || er.Error != "source set exceeds 64 bytes" {
		t.Errorf("a body one byte over MaxSourceBytes answered %d %+v", code, er)
	}
	if code, er := post(`{"optimize":true}`); code != http.StatusBadRequest || er.Error != "codeserver: empty source set" {
		t.Errorf("an empty source set answered %d %+v", code, er)
	}
	if code, er := post(`{"files":`); code != http.StatusBadRequest || !strings.HasPrefix(er.Error, "bad request body: ") {
		t.Errorf("malformed JSON answered %d %+v", code, er)
	}
	if n := s.Stats().CompileRequests; n != 1 {
		t.Errorf("compile_requests = %d, want 1: only the first request reached the compile step", n)
	}

	for _, tc := range []struct {
		declared, limit int64
		sent, wantCap   int
	}{
		{declared: -1, limit: 8 << 20, sent: 10, wantCap: 512},
		{declared: 10_000, limit: 8 << 20, sent: 10_000, wantCap: 10_001},
		{declared: 8 << 20, limit: 8 << 20, sent: 1, wantCap: bodyPresize + 1},
		{declared: 8 << 20, limit: 100, sent: 200, wantCap: 101},
		{declared: 10, limit: 8 << 20, sent: 100_000, wantCap: 0}, // grows with what arrives
	} {
		got, err := readBody(nil, strings.NewReader(strings.Repeat("x", tc.sent)), tc.declared, tc.limit)
		if want := min(tc.sent, int(tc.limit)+1); err != nil || len(got) != want {
			t.Errorf("readBody(declared %d, limit %d) of %d bytes read %d (err %v), want %d",
				tc.declared, tc.limit, tc.sent, len(got), err, want)
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Errorf("readBody(declared %d, limit %d) of %d bytes: capacity %d, want %d",
				tc.declared, tc.limit, tc.sent, cap(got), tc.wantCap)
		}
	}
}

// discardWriter is the least http.ResponseWriter: what it costs is not
// the handler's.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// compileHitAllocCeiling and compileHitByteCeiling are what one cached
// POST /compile may allocate, whatever the unit: measured 13 allocations
// and 776 bytes on this tree, plus 10 %. (The parent: 24 allocations, and
// twice the body in bytes — received, unescaped — up to 83 kB.)
const (
	compileHitAllocCeiling = 14
	compileHitByteCeiling  = 853
)

// TestCompileHitAllocCeiling: answering "I already have this" costs what
// the key costs. A hit allocates a fixed number of objects — the trace and
// its spans, the hasher, the hash's text — that does not depend on the
// unit's size: the body, its unescaped strings, the views and the answer
// are written into recycled request memory, so a set of 32 files costs no
// more than a set of one, and no byte allocated depends on the body. The
// least of 50 hits is read, so that the race detector's sync.Pool, which
// drops a quarter of what it is given, does not decide the figure.
func TestCompileHitAllocCeiling(t *testing.T) {
	s := newTestServer(t, Config{WireVersion: 2})
	h := s.CompileHandler(s.CompileSources, WriteCompileResponse)
	hit := func(name string, files map[string]string) (allocs, bytesPerHit, bodyLen uint64, held int) {
		body, err := json.Marshal(CompileRequest{Files: files, ModuleOpt: true})
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/compile", nil)
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(rd)
		w := &discardWriter{h: http.Header{}}
		run := func() {
			rd.Reset(body)
			h(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", name, w.status)
			}
		}
		run() // the miss
		const n = 50
		before := s.Stats().CacheHits
		allocs, bytesPerHit = leastAllocated(n, run)
		if got := s.Stats().CacheHits - before; got != n {
			t.Fatalf("%s: %d of %d requests were store hits", name, got, n)
		}
		// What the request leaves its memory holding, which the stock's cap
		// must admit: the body, its unescaped strings, the views, the answer.
		m := new(requestMem)
		m.body, _ = readBody(m.body, bytes.NewReader(body), int64(len(body)), s.cfg.MaxSourceBytes)
		if _, _, ok := scanCompileRequest(m.body, m); !ok {
			t.Fatalf("%s: the scanner declined json.Marshal's own output", name)
		}
		m.answer = appendCompileResponse(m.answer, &CompileResponse{Hash: strings.Repeat("0", 64)})
		return allocs, bytesPerHit, uint64(len(body)), m.Rewind()
	}
	for _, u := range corpus.Units() {
		allocs, got, body, held := hit(u.Name, u.Files)
		t.Logf("%-24s %3d allocs/hit %7d B/hit  body %6d B  held %6d B", u.Name, allocs, got, body, held)
		if held > maxKeptRequest {
			t.Errorf("%s: its request memory holds %d bytes, and the stock keeps none over %d", u.Name, held, maxKeptRequest)
		}
		if allocs > compileHitAllocCeiling {
			t.Errorf("%s: %d allocations per cached compile, ceiling %d", u.Name, allocs, compileHitAllocCeiling)
		}
		if got > compileHitByteCeiling {
			t.Errorf("%s: a cached compile of a %d-byte body allocated %d bytes, ceiling %d", u.Name, body, got, compileHitByteCeiling)
		}
	}
	many := map[string]string{}
	for i := 0; i < 32; i++ {
		many[fmt.Sprintf("C%d.tj", i)] = fmt.Sprintf("class C%d {\n\tstatic void main() { }\n}\n", i)
	}
	allocs, _, _, _ := hit("32 files", many)
	t.Logf("%-24s %3d allocs/hit", "32 files", allocs)
	if allocs > compileHitAllocCeiling {
		t.Errorf("32 files: %d allocations per cached compile, want at most %d: something is allocated per file", allocs, compileHitAllocCeiling)
	}
}

// plainRunShape reports whether body is one JSON object and nothing more
// but whitespace, whose members are among RunRequest's three, named
// exactly, each at most once and none null: the shapes a json.Decoder reads
// the way a plain reading does. It walks the body with the Decoder's own
// tokenizer, apart from scanRunRequest.
func plainRunShape(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		name, _ := tok.(string)
		if err != nil || seen[name] || (name != "max_steps" && name != "max_allocs" && name != "tenant") {
			return false
		}
		seen[name] = true
		if tok, err = dec.Token(); err != nil || tok == nil {
			return false
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// FuzzRunRequest holds the /run scanner to its reference, the json.Decoder
// over the body's first 64 KiB that POST /run always used. Whatever the
// scanner accepts is a shape the Decoder reads plainly (plainRunShape) and
// decodes to the same request; and whether it accepts or declines,
// parseRunRequest answers what the Decoder alone answers — the same
// request, or an error in the same words. Each input is scanned in request
// memory another body dirtied and gave back under core.PoisonRecycled.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"max_steps":1000000,"max_allocs":67108864,"tenant":"tenant-0"}`,
		" { \"tenant\" :\t\"t\\u00e9\\n\" , \"max_allocs\":-0,\"max_steps\" : 0 }\r\n",
		`{}`, ``, "  \n", `null`, `[1]`, `"x"`, `5`,
		`{"max_steps":null}`, `{"tenant":null}`, `{"MAX_STEPS":5}`, `{"max_ſteps":5}`, `{"Tenant":"x"}`,
		`{"tenant":"x"}`, `{"max_steps":5,"max_steps":6}`, `{"x":1}`, `{"max_steps":1,"x":{"y":[null]}}`,
		`{"max_steps":5} trailing`, `{"max_steps":5}{"max_steps":6}`, `{"max_steps":1,}`, `{"max_steps":1`,
		`{"max_steps":1e3}`, `{"max_steps":1.0}`, `{"max_steps":01}`, `{"max_steps":-}`, `{"max_steps":"5"}`,
		`{"max_steps":-9223372036854775808}`, `{"max_steps":9223372036854775807}`,
		`{"max_steps":9223372036854775808}`, `{"max_allocs":-9223372036854775809}`, `{"max_steps":12345678901234567890}`,
		`{"tenant":5}`, `{"tenant":"\ud83d\ude00"}`, `{"tenant":"é😀"}`, `{"tenant":"\ud83d"}`, "{\"tenant\":\"\xff\"}", "{\"tenant\":\"a\x01\"}",
	} {
		f.Add([]byte(seed))
	}
	poisonRecycled(f)
	dirt := []byte(`{"tenant":"t\"é\\` + strings.Repeat("x", 300) + `","max_steps":7}`)
	m := new(requestMem)
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref RunRequest
		refErr := json.NewDecoder(io.LimitReader(bytes.NewReader(body), 1<<16)).Decode(&ref)
		if refErr == io.EOF {
			refErr = nil
		}

		m.body = append(m.body[:0], dirt...)
		if _, ok := scanRunRequest(m.body, m); !ok {
			t.Fatal("the scanner declined the dirtying body")
		}
		m.Rewind()
		m.body = append(m.body, body...)
		if req, ok := scanRunRequest(m.body, m); ok {
			if refErr != nil || req != ref {
				t.Fatalf("scanned %+v, the Decoder %+v, %v", req, ref, refErr)
			}
			if !plainRunShape(body) {
				t.Fatal("the scanner accepted a shape the Decoder reads differently from a plain reading")
			}
		}

		m.Rewind()
		req, err := parseRunRequest(m, bytes.NewReader(body), int64(len(body)))
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("parseRunRequest: %v, the Decoder: %v", err, refErr)
		case err != nil && err.Error() != refErr.Error():
			t.Fatalf("refused with %q, the Decoder with %q", err, refErr)
		case err == nil && req != ref:
			t.Fatalf("parsed %+v, the Decoder %+v", req, ref)
		}
	})
}

// pooledRunAllocCeiling and pooledRunByteCeiling are what one pooled POST
// /run of a resident unit may allocate through the server's handler,
// measured on this tree plus 10 %: 37 allocations and 3 384 bytes. Of
// those the door's own are one, the tenant's name; the rest are the
// route's match, the session, its trace and interrupt, the clone of the
// snapshot and the guest's output. The parent, with a json.Decoder for the
// body and an indenting json.Encoder for the answer, measured 54 and
// 4 720 through the same harness.
const (
	pooledRunAllocCeiling = 40
	pooledRunByteCeiling  = 3722
)

// TestPooledRunAllocCeiling: a run served from the warm-session pool reads
// its body into recycled request memory, scans it there and encodes its
// answer into it, so the front door adds next to nothing to what the
// session costs. Skipped under -race, whose sync.Pool drops items.
func TestPooledRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what it is given")
	}
	s := newTestServer(t, Config{MaxSteps: 1 << 20, MaxAllocs: 1 << 20})
	u, _, err := s.CompileUnit(context.Background(), map[string]string{"Hello.tj": `class Hello {
	static int n = 6;
	static void main() { System.out.println("<" + n * 7 + "&>"); }
}`}, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"max_steps":1000000,"max_allocs":67108864,"tenant":"tenant-0"}`)
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/run/"+u.Key.String(), nil)
	req.ContentLength = int64(len(body))
	req.Body = io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	run := func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	run() // the miss: load, static init, snapshot
	const n = 50
	before := s.Stats().PoolHits
	allocs, bytesPerRun := leastAllocated(n, run)
	if got := s.Stats().PoolHits - before; got != n {
		t.Fatalf("%d of %d runs were pool hits", got, n)
	}
	t.Logf("pooled /run: %d allocs/run, %d B/run", allocs, bytesPerRun)
	if allocs > pooledRunAllocCeiling || bytesPerRun > pooledRunByteCeiling {
		t.Errorf("a pooled run allocated %d objects and %d bytes, ceilings %d and %d",
			allocs, bytesPerRun, pooledRunAllocCeiling, pooledRunByteCeiling)
	}
}

// TestRequestBodiesShareMemoryConcurrently: one stock of request memory
// lends to every hot door at once. Sixteen clients, with every item given
// back poisoned (core.PoisonRecycled), mix cached compiles of distinct
// source sets, compile misses, compile bodies the scanner declines (a
// surrogate escape in a file name, an unknown member), /run with bodies the
// scanner takes and declines, and /run-stream. Every compile must answer
// the hash KeyFor gives its files, and every run the answer an unpooled
// server gave, byte for byte. Run it under -race.
func TestRequestBodiesShareMemoryConcurrently(t *testing.T) {
	poisonRecycled(t)
	const clients, rounds, sets = 16, 24, 8
	program := func(class string, i int) string {
		return fmt.Sprintf(`class %s {
	static void main() {
		String s = "";
		for (int k = 0; k < %d; k++) { s = s + "<%d&>"; }
		System.out.println(s);
	}
}`, class, i%5+1, i)
	}
	cfg := Config{MaxSteps: 1 << 20, MaxAllocs: 1 << 20, Workers: 2}
	s := newTestServer(t, cfg)
	cfg.PoolUnits = -1
	ref := newTestServer(t, cfg)
	hs, href := s.Handler(), ref.Handler()
	call := func(h http.Handler, method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	opts := s.ResolveOptions(Options{Optimize: true})
	compileBody := func(files map[string]string) []byte {
		body, err := json.Marshal(CompileRequest{Files: files, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// compile posts body and reports what is wrong with the answer, if
	// anything, given the files json reads from it.
	compile := func(body []byte, files map[string]string) string {
		code, answer := call(hs, "POST", "/compile", body)
		var cr CompileResponse
		if err := json.Unmarshal(answer, &cr); code != http.StatusOK || err != nil {
			return fmt.Sprintf("answered %d %s", code, answer)
		}
		if want := KeyFor(files, opts).String(); cr.Hash != want {
			return fmt.Sprintf("hash %s, KeyFor gives %s", cr.Hash, want)
		}
		return ""
	}

	type door struct{ path, body string }
	var files []map[string]string
	var doors []door
	want := map[door][]byte{}
	for i := range sets {
		f := map[string]string{fmt.Sprintf("P%d.tj", i): program(fmt.Sprintf("P%d", i), i)}
		files = append(files, f)
		if msg := compile(compileBody(f), f); msg != "" {
			t.Fatal(msg)
		}
		k := KeyFor(f, opts)
		call(href, "POST", "/compile", compileBody(f))
		code, wire := call(href, "GET", "/unit/"+k.String(), nil)
		if code != http.StatusOK {
			t.Fatalf("GET /unit: %d", code)
		}
		for _, d := range []door{
			{"/run/" + k.String(), `{"max_steps":1000000,"max_allocs":1048576,"tenant":"t` + strconv.Itoa(i) + `"}`},
			{"/run/" + k.String(), `{"tenant":"t\u002e\u002d` + strconv.Itoa(i) + `","MAX_STEPS":1000000,"other":null}`},
			{"/run-stream", string(wire)},
		} {
			code, answer := call(href, "POST", d.path, []byte(d.body))
			if code != http.StatusOK {
				t.Fatalf("unpooled %s: %d %s", d.path, code, answer)
			}
			doors, want[d] = append(doors, d), answer
		}
	}

	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				n := (c*5 + i) % sets
				var what, msg string
				switch i % 6 {
				case 0:
					what, msg = "cached compile", compile(compileBody(files[n]), files[n])
				case 1:
					if i >= 12 {
						continue // two misses a client: the producer is not under test
					}
					class := fmt.Sprintf("M%d_%d", c, i)
					f := map[string]string{class + ".tj": program(class, c+i)}
					what, msg = "compile miss", compile(compileBody(f), f)
				case 2:
					src := files[n][fmt.Sprintf("P%d.tj", n)]
					text, _ := json.Marshal(src)
					body := fmt.Sprintf(`{"files":{"P%d\ud83d\ude00.tj":%s},"optimize":true}`, n, text)
					what, msg = "compile with a surrogate escape", compile([]byte(body), map[string]string{fmt.Sprintf("P%d\U0001F600.tj", n): src})
				case 3:
					body := bytes.Replace(compileBody(files[n]), []byte(`"optimize"`), []byte(`"extra":[1,{"a":null}],"optimize"`), 1)
					what, msg = "compile with an unknown member", compile(body, files[n])
				default:
					d := doors[(c+i)%len(doors)]
					code, answer := call(hs, "POST", d.path, []byte(d.body))
					if what = d.path; code != http.StatusOK || !bytes.Equal(answer, want[d]) {
						msg = fmt.Sprintf("answered %d %s\nunpooled %s", code, answer, want[d])
					}
				}
				if msg != "" {
					t.Errorf("client %d, round %d, %s: %s", c, i, what, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.StreamRejects != 0 || st.PoolHits == 0 {
		t.Errorf("stream_rejects %d, pool_hits %d", st.StreamRejects, st.PoolHits)
	}
}
