package oracle_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/rt"
)

// hostileGuest is one admissible unit written to take from the host
// something other than what its budget counts.
type hostileGuest struct {
	name string
	src  string
	// maxAllocs is the allocation budget the request asks for; 0 leaves
	// the served default. The three rows that fill their budget ask for a
	// sixteenth of it: the default admits 1.5 GiB of guest heap per
	// session by design (DESIGN.md §9), more than a CI box should be
	// made to prove. The bound they are held to is a function of what
	// they asked for.
	maxAllocs int64
	wantKill  string // "" = the guest must end well
}

const fewerAllocs = codeserver.DefaultMaxAllocs / 16

var hostileGuests = []hostileGuest{
	// Call depth: every engine runs a guest call on the host's stack,
	// whose overflow is fatal to the process. Rec is the 164-byte unit of
	// ROADMAP item 1; the others reach the same place through each kind
	// of activation the engines implement separately.
	{name: "self recursion", wantKill: "depth_limit", src: `
class Rec { static int f(int n) { return f(n+1)+1; }
    static void main() { System.out.println("" + f(0)); } }`},
	{name: "mutual recursion", wantKill: "depth_limit", src: `
class M { static int a(int n) { return b(n+1)+1; } static int b(int n) { return a(n+1)+2; }
    static void main() { System.out.println("" + a(0)); } }`},
	{name: "recursion through xdispatch", wantKill: "depth_limit", src: `
class A { int g(int n) { return this.g(n+1)+1; } }
class B extends A { int g(int n) { return super.g(n)+1; } }
class D { static void main() { A a = new B(); System.out.println("" + a.g(0)); } }`},
	{name: "recursion inside static init", wantKill: "depth_limit", src: `
class S { static int x = f(0); static int f(int n) { return f(n+1)+1; }
    static void main() { System.out.println("" + x); } }`},
	{name: "recursion inside try/finally", wantKill: "depth_limit", src: `
class T { static int f(int n) { try { return f(n+1)+1; } finally { n = n + 1; } }
    static void main() { System.out.println("" + f(0)); } }`},
	{name: "recursion through a wide frame", wantKill: "depth_limit", src: `
class W { static int f(int n) { ` + wideLocals(400) + ` return f(n+1)+a399; }
    static void main() { System.out.println("" + f(0)); } }`},

	// Memory the allocation budget has to cover: output the host buffers
	// until the guest ends, strings, and arrays whose elements are arrays.
	{name: "output flood", maxAllocs: fewerAllocs, wantKill: "alloc_limit", src: `
class Flood { static void main() {
    String s = "0123456789abcdef";
    for (int i = 0; i < 12; i++) { s = s + s; }
    while (true) { System.out.println(s); } } }`},
	{name: "string doubling", maxAllocs: fewerAllocs, wantKill: "alloc_limit", src: `
class Dbl { static void main() {
    String s = "0123456789abcdef";
    for (int i = 0; i < 60; i++) { s = s + s; }
    System.out.println(s.length()); } }`},
	{name: "array of arrays", maxAllocs: fewerAllocs, wantKill: "alloc_limit", src: `
class AoA { static void main() {
    int[][] rows = new int[4096][];
    for (int i = 0; i < 4096; i++) { rows[i] = new int[4096]; rows[i][i] = i; }
    System.out.println(rows[7][7]); } }`},

	// Heap shape: the pool freezes and clones whatever static init left
	// behind, and may not spend host stack on how deep that goes.
	{name: "long list in statics", src: `
class Node { Node next; }
class L { static Node head = build();
    static Node build() { Node h = null; for (int i = 0; i < 300000; i++) { Node n = new Node(); n.next = h; h = n; } return h; }
    static void main() { System.out.println("ok"); } }`},
}

func wideLocals(n int) string {
	var sb strings.Builder
	sb.WriteString("int a0 = n;")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, " int a%d = a%d + %d;", i, i-1, i)
	}
	return sb.String()
}

// hostCost is what a child process reports about serving one guest.
type hostCost struct {
	Status      int    `json:"status"`
	OK          bool   `json:"ok"`
	Kill        string `json:"kill"`
	Kind        string `json:"kind"` // of a refused /compile
	Error       string `json:"error"`
	OutputBytes int    `json:"output_bytes"`
	Allocs      int64  `json:"allocs"`
	WallMillis  int64  `json:"wall_ms"`
	SysBytes    uint64 `json:"sys_bytes"`
}

// hostCostChildEnv names, in a child process, the guest and door to serve.
const hostCostChildEnv = "SAFETSA_HOST_COST_CHILD"

// sysBound is the host memory one session may cost a server that has
// served nothing else, as a function of the allocation units it charged,
// which its budget caps (the step budget buys time, not memory). The
// terms, from DESIGN.md §9:
//   - 96 MiB: the runtime, the server and the test's own HTTP client;
//   - 192 MiB: the Go stack at the depth limit — under 125 MB in use,
//     which the runtime rounds up to a 128 MiB block and, while growing
//     into it, holds beside the 64 MiB one it copies from;
//   - 2 × 24 B × MaxStackSlots: the live register files, and as much
//     again not yet collected;
//   - 72 B per allocation unit: a unit is one 24-byte rt.Value slot at
//     most (a string or output byte costs 1), live in the guest's heap,
//     dead but not yet collected under GOGC=100, and once more in a
//     pooled snapshot's frozen copy.
func sysBound(allocs int64) uint64 {
	return 96<<20 + 192<<20 + 2*24*rt.MaxStackSlots + 72*uint64(allocs)
}

// TestHostCostBoundedByGuestBudget is the net under "no guest can take
// the process down": each hostile guest is served by a fresh process —
// the failure under test is that process dying, which no in-process
// assertion survives — configured as safetsad is when started with no
// flags, through POST /run and POST /run-stream (the compiled engine
// with the pool's snapshot build behind it, and the same engine lowering
// each function as it is first called).
// The process must live to report, the answer must name the kill that
// stopped the guest, and the host's cost must stay inside a stated
// function of the budgets: memory under sysBound of what the allocation
// budget let it charge, wall time under the run deadline, output under
// the allocation budget that now pays for it.
//
// At the parent of the PR that added it, "self recursion" ends the child
// with "fatal error: stack overflow" and "output flood" runs to the
// deadline with tens of megabytes printed.
func TestHostCostBoundedByGuestBudget(t *testing.T) {
	if spec := os.Getenv(hostCostChildEnv); spec != "" {
		if shape, ok := strings.CutPrefix(spec, "source/"); ok {
			serveHostileSource(shape)
		}
		serveHostileGuest(spec)
		return
	}
	for gi, g := range hostileGuests {
		for _, door := range []string{"run", "run-stream"} {
			t.Run(g.name+"/"+door, func(t *testing.T) {
				c := hostCostOf(t, fmt.Sprintf("%d/%s", gi, door))
				if c.Status != http.StatusOK {
					t.Fatalf("HTTP %d: %s", c.Status, c.Error)
				}
				if c.Kill != g.wantKill || c.OK != (g.wantKill == "") {
					t.Errorf("ok=%v kill=%q error=%q, want kill %q", c.OK, c.Kill, c.Error, g.wantKill)
				}
				budget := g.maxAllocs
				if budget == 0 {
					budget = codeserver.DefaultMaxAllocs
				}
				if int64(c.OutputBytes) > budget {
					t.Errorf("%d bytes of output under an allocation budget of %d", c.OutputBytes, budget)
				}
				// The charge that killed a session is counted and never made.
				if bound := sysBound(min(c.Allocs, budget)); c.SysBytes > bound {
					t.Errorf("the process took %d MiB from the OS, the budgets bound it to %d MiB", c.SysBytes>>20, bound>>20)
				}
				if wall := time.Duration(c.WallMillis) * time.Millisecond; wall >= codeserver.DefaultRunTimeout {
					t.Errorf("the run took %v, the deadline is %v", wall, codeserver.DefaultRunTimeout)
				}
			})
		}
	}
}

// hostCostOf serves spec from a child process and returns what it
// reported; the child dying is the failure both tests are about.
func hostCostOf(t *testing.T, spec string) (c hostCost) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHostCostBoundedByGuestBudget$")
	cmd.Env = append(os.Environ(), hostCostChildEnv+"="+spec)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := stderr.String()
		if len(msg) > 600 {
			msg = msg[:600] + "…"
		}
		t.Fatalf("the serving process died (%v):\n%s", err, msg)
	}
	if err := json.Unmarshal(out, &c); err != nil {
		t.Fatalf("child reported %q: %v", out, err)
	}
	t.Logf("%+v", c)
	return c
}

// hostileSources are the producer door's twins of the recursing guests:
// sources under MaxSourceBytes whose tree is as deep as they are long.
// Each names the walk it used to overflow the host's stack in: the
// parser's own recursion, or — where a loop in the parser builds the
// chain — the first recursive walk behind it.
var hostileSources = []struct {
	name             string
	open, mid, close string // the body is n opens, mid, n closes
}{
	{"parentheses (parser.parsePrimary)", "(", "1", ")"},
	{"a sum (sema.checkBinary)", "1+", "1", ""},
	{"blocks (parser.parseBlock)", "{", "", "}"},
	{"negations (parser.parseUnary)", "- ", "1", ""},
	{"subscripts (sema.checkExpr)", "", "a", "[0]"},
	{"ifs (parser.parseStmt)", "if(c)", "", ""},
}

// hostileSourceBytes is the size each source is repeated to: under the
// 8 MiB a /compile body may be, three million levels of the shortest.
const hostileSourceBytes = 6_000_000

// TestHostileSourceIsAParseError: a served process with safetsad's
// default flags answers each hostile source 400, kind parse, and lives.
// At the parent of the PR that bounded the parser's depth every row ends
// the child with "fatal error: stack overflow".
func TestHostileSourceIsAParseError(t *testing.T) {
	for i, h := range hostileSources {
		t.Run(h.name, func(t *testing.T) {
			c := hostCostOf(t, fmt.Sprintf("source/%d", i))
			if c.Status != http.StatusBadRequest || c.Kind != "parse" || !strings.Contains(c.Error, "nesting deeper") {
				t.Errorf("HTTP %d, kind %q: %s; want 400, kind parse", c.Status, c.Kind, c.Error)
			}
		})
	}
}

// serveHostileSource is that test's child: one source through POST
// /compile of a server with safetsad's default flags.
func serveHostileSource(shape string) {
	var i int
	if _, err := fmt.Sscanf(shape, "%d", &i); err != nil {
		panic(err)
	}
	h := hostileSources[i]
	n := hostileSourceBytes / len(h.open+h.close)
	stmt := "int x = " + strings.Repeat(h.open, n) + h.mid + strings.Repeat(h.close, n) + ";"
	if h.mid == "" { // the shape is a statement, not an expression
		stmt = strings.Repeat(h.open, n) + ";" + strings.Repeat(h.close, n)
	}
	src := "class G { static void main() { boolean c = true; int[] a = null; " + stmt + " } }"
	_, post := servedAtDefaults()
	creq, _ := json.Marshal(codeserver.CompileRequest{Files: map[string]string{"G.tj": src}})
	start := time.Now()
	status, data := post("/compile", "application/json", creq)
	var er codeserver.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		panic(fmt.Sprintf("compile: HTTP %d %s", status, data))
	}
	reportHostCost(hostCost{Status: status, Error: er.Error, Kind: er.Kind, WallMillis: time.Since(start).Milliseconds()})
}

// servedAtDefaults starts, on a loopback port, a server configured as
// safetsad is when started with no flags, and returns its URL and how to
// POST to it.
func servedAtDefaults() (url string, post func(path, contentType string, body []byte) (int, []byte)) {
	srv, err := codeserver.New(codeserver.Config{
		MaxSteps:    codeserver.DefaultMaxSteps,
		MaxAllocs:   codeserver.DefaultMaxAllocs,
		RunTimeout:  codeserver.DefaultRunTimeout,
		WireVersion: 2,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func(path, contentType string, body []byte) (int, []byte) {
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			panic(err)
		}
		return resp.StatusCode, data
	}
}

// reportHostCost ends a child: c and the process's memory go to stdout.
func reportHostCost(c hostCost) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.SysBytes = ms.Sys // memory obtained from the OS; the runtime does not give it a way down
	if err := json.NewEncoder(os.Stdout).Encode(c); err != nil {
		panic(err)
	}
	os.Exit(0)
}

// serveHostileGuest is the child: a server with safetsad's default
// budgets on a loopback port, one guest compiled and run through one
// door, the outcome and the process's memory written to stdout.
func serveHostileGuest(spec string) {
	var gi int
	var door string
	if _, err := fmt.Sscanf(spec, "%d/%s", &gi, &door); err != nil {
		panic(err)
	}
	g := hostileGuests[gi]
	url, post := servedAtDefaults()
	creq, _ := json.Marshal(codeserver.CompileRequest{Files: map[string]string{"G.tj": g.src}})
	status, data := post("/compile", "application/json", creq)
	var cr codeserver.CompileResponse
	if err := json.Unmarshal(data, &cr); err != nil || status != http.StatusOK {
		panic(fmt.Sprintf("compile: HTTP %d %s", status, data))
	}

	start := time.Now()
	if door == "run" {
		rreq, _ := json.Marshal(codeserver.RunRequest{MaxAllocs: g.maxAllocs})
		status, data = post("/run/"+cr.Hash, "application/json", rreq)
	} else {
		resp, err := http.Get(url + "/unit/" + cr.Hash)
		if err != nil {
			panic(err)
		}
		unit, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			panic(err)
		}
		start = time.Now()
		status, data = post(fmt.Sprintf("/run-stream?max_allocs=%d", g.maxAllocs), "application/octet-stream", unit)
	}
	wall := time.Since(start)

	var res codeserver.RunResult
	c := hostCost{Status: status, WallMillis: wall.Milliseconds()}
	if status != http.StatusOK {
		c.Error = string(data)
	} else if err := json.Unmarshal(data, &res); err != nil {
		panic(err)
	}
	c.OK, c.Kill, c.OutputBytes, c.Allocs = res.OK, res.Kill, len(res.Output), res.Allocs
	if c.Error == "" {
		c.Error = res.Error
	}
	reportHostCost(c)
}
