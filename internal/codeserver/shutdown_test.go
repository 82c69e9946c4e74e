package codeserver

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// loopFiles is a guest that proves it started (one write) and then runs
// forever; only an interrupt can end it.
func loopFiles() map[string]string {
	return map[string]string{"Loop.tj": `
class Loop {
    static void main() {
        System.out.println("started");
        while (true) { }
    }
}`}
}

// recFiles is the 164-byte unit that used to end the process: unbounded
// recursion on the host's stack, which only the depth limit can stop.
func recFiles() map[string]string {
	return map[string]string{"Rec.tj": `
class Rec {
    static int f(int n) { return f(n+1)+1; }
    static void main() { System.out.println("" + f(0)); }
}`}
}

// TestShutdownDrainsInFlightRuns: Shutdown must interrupt in-flight
// guest runs via the rt interrupt channel and wait for them to drain —
// and no run may be abandoned mid-write: every session still produces a
// complete RunResult carrying the output written before the interrupt.
func TestShutdownDrainsInFlightRuns(t *testing.T) {
	s := newTestServer(t, Config{})
	u, _, err := s.CompileUnit(context.Background(), loopFiles(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 4
	var wg sync.WaitGroup
	results := make([]RunResult, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.RunUnit(context.Background(), u.Key, 0)
		}(i)
	}
	// Wait until every session is actually executing guest code.
	for i := 0; s.m.n[mRunsInFlight].Load() < sessions; i++ {
		if i > 4000 {
			t.Fatal("runs never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d abandoned with transport error: %v", i, errs[i])
		}
		if results[i].OK {
			t.Fatalf("session %d reported OK after interrupt", i)
		}
		if !strings.Contains(results[i].Error, "interrupted") {
			t.Errorf("session %d error %q, want an interrupt kill", i, results[i].Error)
		}
		// The write completed before the loop; an abandoned run would
		// have dropped it.
		if results[i].Output != "started\n" {
			t.Errorf("session %d output %q, want the pre-interrupt write", i, results[i].Output)
		}
	}
	st := s.Stats()
	if st.RunsInFlight != 0 {
		t.Errorf("runs still in flight after Shutdown: %d", st.RunsInFlight)
	}
	if st.InterruptKills != sessions {
		t.Errorf("interrupt kills = %d, want %d", st.InterruptKills, sessions)
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("drain took %v for interrupt-killed guests", time.Since(start))
	}

	// A run arriving after Shutdown is interrupted immediately instead
	// of wedging the drained server.
	res, err := s.RunUnit(context.Background(), u.Key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("post-shutdown run was not interrupted")
	}
}

// TestShutdownCompletesHTTPResponses drives the same drain through the
// HTTP layer: a client blocked on POST /run receives a complete 200
// response (not a reset connection) when the server shuts down.
func TestShutdownCompletesHTTPResponses(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Files: loopFiles()})
	cr := decodeBody[CompileResponse](t, resp)

	type runOut struct {
		res  RunResult
		code int
		err  error
	}
	out := make(chan runOut, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/run/"+cr.Hash, "application/json", strings.NewReader("{}"))
		if err != nil {
			out <- runOut{err: err}
			return
		}
		o := runOut{code: resp.StatusCode}
		o.err = json.NewDecoder(resp.Body).Decode(&o.res)
		resp.Body.Close()
		out <- o
	}()

	for i := 0; s.m.n[mRunsInFlight].Load() == 0; i++ {
		if i > 4000 {
			t.Fatal("run never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}

	select {
	case o := <-out:
		if o.err != nil {
			t.Fatalf("HTTP run aborted mid-write: %v", o.err)
		}
		if o.code != http.StatusOK {
			t.Fatalf("run status %d, want 200", o.code)
		}
		if o.res.OK || !strings.Contains(o.res.Error, "interrupted") {
			t.Errorf("run result %+v, want an interrupt kill", o.res)
		}
		if o.res.Output != "started\n" {
			t.Errorf("output %q, want pre-interrupt write preserved", o.res.Output)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HTTP response never arrived after shutdown")
	}
}
