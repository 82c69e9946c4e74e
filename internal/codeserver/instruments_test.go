package codeserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safetsa/internal/codeserver"
	"safetsa/internal/instruments"
)

var hello = map[string]string{"Hello.tj": `
class Hello {
    static void main() {
        System.out.println("hello, " + (6 * 7));
    }
}
`}

// TestMetricsEndpointMatchesCounters is the acceptance check for the
// observability layer: after real compile, run and peer-fill traffic, the
// server's instruments agree with each other and with the client's clock
// (instruments.Check), and /metrics serves per-stage histograms whose
// sample counts are the ones this traffic makes.
func TestMetricsEndpointMatchesCounters(t *testing.T) {
	s, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var clock instruments.Clock
	post := func(path string, body any) []byte {
		t.Helper()
		var answer []byte
		clock.Time(func() {
			b, _ := json.Marshal(body)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if answer, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d: %s %v", path, resp.StatusCode, answer, err)
			}
		})
		return answer
	}

	var cr codeserver.CompileResponse
	if err := json.Unmarshal(post("/compile", codeserver.CompileRequest{Files: hello, Optimize: true}), &cr); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		post("/run/"+cr.Hash, codeserver.RunRequest{})
	}
	// One peer fill of each outcome: admitted, refused, never fetched.
	other, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := other.CompileUnit(context.Background(), hello, codeserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := u.Wire
	for i, fetch := range []func(context.Context) ([]byte, error){
		func(context.Context) ([]byte, error) { return good, nil },
		func(context.Context) ([]byte, error) { return good[:len(good)/2], nil },
		func(context.Context) ([]byte, error) { return nil, errors.New("owner unreachable") },
	} {
		clock.Time(func() {
			_, _, err := s.PeerFillUnit(context.Background(), codeserver.Key{0: 0xfe, 1: byte(i)}, fetch)
			if (err == nil) != (i == 0) {
				t.Fatalf("peer fill %d: err %v", i, err)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	r, err := instruments.Read(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range instruments.Check(r, &clock) {
		t.Error(err)
	}

	st, count := r.Stats, func(stage string) float64 {
		return r.Sum("safetsa_stage_duration_seconds_count", "stage", stage)
	}
	// decode counts the loads that opened the unit's bytes themselves, and
	// the pulls of bodies through them. The one load here is such a load:
	// the unit came in through the compile door, which keeps its decode
	// (cluster's door table has the loads that admit nothing), and the first
	// run pulls main, the one body the three runs call. The verify row is
	// declared and unfed: admission is one step.
	if got := count("decode"); got != float64(st.Loads+st.PulledFunctions) || st.Loads != 1 || st.PulledFunctions != 1 {
		t.Errorf("decode histogram count %v != loads %d + pulled functions %d (want 1 + 1)", got, st.Loads, st.PulledFunctions)
	}
	if got := count("verify"); got != 0 {
		t.Errorf("verify histogram count %v, want 0: nothing in the server verifies apart from decoding", got)
	}
	if st.Compiles != 1 || st.PeerFills != 1 || st.PeerFillRejects != 1 || st.PeerFillErrors != 1 {
		t.Errorf("compiles %d, peer fills %d, rejects %d, errors %d: want one of each",
			st.Compiles, st.PeerFills, st.PeerFillRejects, st.PeerFillErrors)
	}
	if got := r.Sum("safetsa_compile_requests_total"); got != float64(st.CompileRequests) {
		t.Errorf("compile_requests %v != %d", got, st.CompileRequests)
	}
	if got := r.Sum("safetsa_runs_total"); got != 3 {
		t.Errorf("runs_total %v, want 3", got)
	}
	if got := r.Sum("safetsa_guest_steps_total"); got <= 0 {
		t.Errorf("guest_steps_total %v, want > 0", got)
	}
	if len(r.Traces) != 4 {
		t.Errorf("%d traces, want 4: a compile and three runs", len(r.Traces))
	}
}
