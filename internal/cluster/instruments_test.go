package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/instruments"
)

// TestFleetInstrumentsAgree scripts one of everything a request can be on
// a 2-node fleet — a compile forwarded to its owner, a cold run, a hot run
// (a pool hit), a /run-stream, a step-limit kill, a tenant 429 and a peer
// fill on the run path — timing each request on the client's clock. Once
// the fleet is quiet, each node's /stats, /metrics and /debug/traces must
// agree with each other and with that clock (instruments.Check).
func TestFleetInstrumentsAgree(t *testing.T) {
	f := newFleetOf(t, []string{"a1", "b2"}, codeserver.Config{TenantMaxInFlight: 1})
	a, b := f.urls["a1"], f.urls["b2"]
	var clock instruments.Clock
	send := func(url, contentType string, body []byte, wantStatus int) []byte {
		t.Helper()
		var answer []byte
		clock.Time(func() {
			resp, err := http.Post(url, contentType, bytes.NewReader(body))
			if err != nil {
				t.Error(err) // send also runs on the runaway guest's goroutine
				return
			}
			defer resp.Body.Close()
			if answer, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != wantStatus {
				t.Errorf("POST %s: status %d, want %d: %s %v", url, resp.StatusCode, wantStatus, answer, err)
			}
		})
		return answer
	}
	compile := func(url string, files map[string]string) string {
		t.Helper()
		body, _ := json.Marshal(codeserver.CompileRequest{Files: files})
		var cr codeserver.CompileResponse
		if err := json.Unmarshal(send(url+"/compile", "application/json", body, http.StatusOK), &cr); err != nil {
			t.Fatal(err)
		}
		return cr.Hash
	}
	run := func(url, hash string, req codeserver.RunRequest, wantStatus int) (rr codeserver.RunResult) {
		t.Helper()
		body, _ := json.Marshal(req)
		if answer := send(url+"/run/"+hash, "application/json", body, wantStatus); wantStatus == http.StatusOK {
			if err := json.Unmarshal(answer, &rr); err != nil {
				t.Errorf("run %s: %v", hash, err)
			}
		}
		return rr
	}
	// ownedBy is a guest whose unit node owns.
	ownedBy := func(node string) map[string]string {
		for i := 0; ; i++ {
			files := fleetProgram(i)
			if f.owner(codeserver.KeyFor(files, f.srvs["a1"].ResolveOptions(codeserver.Options{}))) == node {
				return files
			}
		}
	}

	// P, owned by b2, is compiled there on a1's behalf and peer-filled into
	// a1; Q is compiled on its owner, a1.
	p, q := compile(a, ownedBy("b2")), compile(a, ownedBy("a1"))
	if rr := run(a, p, codeserver.RunRequest{}, http.StatusOK); !rr.OK {
		t.Fatalf("cold run: %+v", rr)
	}
	if rr := run(a, p, codeserver.RunRequest{}, http.StatusOK); !rr.OK {
		t.Fatalf("hot run: %+v", rr)
	}
	// b2 has never seen Q: its run fills it from a1.
	if rr := run(b, q, codeserver.RunRequest{}, http.StatusOK); !rr.OK {
		t.Fatalf("peer-filled run: %+v", rr)
	}
	var unit []byte
	clock.Time(func() {
		resp, err := http.Get(a + "/unit/" + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if unit, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
	})
	var sr codeserver.RunStreamResult
	if err := json.Unmarshal(send(b+"/run-stream", "application/octet-stream", unit, http.StatusOK), &sr); err != nil || !sr.OK {
		t.Fatalf("stream run: %+v %v", sr, err)
	}

	// A runaway guest of tenant t1, owned by a1 so that running it there
	// fills nothing, is killed by its step budget; while it runs, t1 is at
	// its bound and a second run of t1's gets 429.
	var loop string
	for i := 0; loop == ""; i++ {
		files := map[string]string{"Loop.tj": fmt.Sprintf(`
class Loop { static void main() { int n = %d; while (true) { n++; } } }`, i)}
		if f.owner(codeserver.KeyFor(files, f.srvs["a1"].ResolveOptions(codeserver.Options{}))) == "a1" {
			loop = compile(a, files)
		}
	}
	killed := make(chan codeserver.RunResult)
	go func() {
		killed <- run(a, loop, codeserver.RunRequest{MaxSteps: 20_000_000, Tenant: "t1"}, http.StatusOK)
	}()
	for deadline := time.Now().Add(10 * time.Second); f.srvs["a1"].Stats().RunsInFlight == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the runaway guest never started")
		}
	}
	run(a, p, codeserver.RunRequest{Tenant: "t1"}, http.StatusTooManyRequests)
	if rr := <-killed; rr.Kill != "step_limit" {
		t.Fatalf("runaway guest: %+v, want a step_limit kill", rr)
	}

	// compiles, peer fills, pool hits, step-limit kills, tenant rejects, runs
	var total [6]uint64
	for _, name := range f.names {
		r, err := instruments.Read(f.urls[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range instruments.Check(r, &clock) {
			t.Errorf("%s: %v", name, err)
		}
		st := r.Stats
		for i, n := range []uint64{st.Compiles, st.PeerFills, st.PoolHits, st.StepLimitKills, st.TenantRejects, st.Runs} {
			total[i] += n
		}
		if len(r.Traces) == 0 {
			t.Errorf("%s recorded no trace", name)
		}
	}
	// The script did what it says, so the checks above saw every kind.
	if want := [6]uint64{3, 2, 1, 1, 1, 5}; total != want {
		t.Errorf("fleet's compiles, peer fills, pool hits, step-limit kills, tenant rejects and runs: %v, want %v", total, want)
	}
}
