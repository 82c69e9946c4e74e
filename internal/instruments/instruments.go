// Package instruments holds a quiet code server's instruments to each
// other and to the client's clock. /stats, /metrics and /debug/traces are
// three readings of one set of events, so a count that one of them
// misses, a session still booked in flight, or a trace whose spans outlast
// the request that made it is a fault in the instrumentation. The single
// server's tests and the fleet's share it; only tests import it.
package instruments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/obs"
)

// Reading is what one server's instruments say.
type Reading struct {
	Stats   codeserver.Stats
	Metrics string
	Traces  []obs.TraceSnapshot
}

// Read takes the /stats, /metrics and /debug/traces of the server at
// base. A fleet member's /stats is the fleet view, whose "local" row is
// the member's own.
func Read(base string) (Reading, error) {
	var r Reading
	var stats struct {
		codeserver.Stats
		Local *codeserver.Stats `json:"local"`
	}
	var traces struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := get(base+"/stats", func(body []byte) error { return json.Unmarshal(body, &stats) }); err != nil {
		return r, err
	}
	if r.Stats = stats.Stats; stats.Local != nil {
		r.Stats = *stats.Local
	}
	if err := get(base+"/metrics", func(body []byte) error { r.Metrics = string(body); return nil }); err != nil {
		return r, err
	}
	err := get(base+"/debug/traces", func(body []byte) error { return json.Unmarshal(body, &traces) })
	r.Traces = traces.Traces
	return r, err
}

func get(url string, read func([]byte) error) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err != nil {
		return err
	}
	return read(body)
}

// Clock is the client's record of its requests: when each was sent and
// when its answer had been read. It is safe for concurrent use.
type Clock struct {
	mu      sync.Mutex
	windows []window
}

type window struct{ start, end time.Time }

// Time runs request, one request of the client's, on the clock.
func (c *Clock) Time(request func()) {
	w := window{start: time.Now()}
	request()
	w.end = time.Now()
	c.mu.Lock()
	c.windows = append(c.windows, w)
	c.mu.Unlock()
}

// Check returns every disagreement between r's instruments, and between
// r's traces and the requests clock timed, which must include every
// request that reached the server. The server must be quiet: no request
// in flight since r was read.
//
// The figures that must agree, each read from /stats and from /metrics:
// the run histogram's count, runs, and the tenant rows' runs; guest steps
// and allocations and the tenant rows' sums; tenant rejects and the rows'
// rejects; the compile histogram's count and compiles; the peer_fill
// histogram's count and peer fills, errors and rejects together; the
// prepare and compile_backend histograms' counts. Every in-flight gauge,
// server-wide and per tenant, is 0, and no derived figure (clean runs,
// failed runs no budget killed, a client's wait beyond a trace's spans)
// is negative. Each trace began inside a request the clock timed (the
// latest one sent before it), and its top-level spans, overlapping ones
// counted once, cover no more than that request's wall clock.
func Check(r Reading, clock *Clock) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	st, prom := r.Stats, parse(r.Metrics)
	equal := func(what string, figures ...float64) {
		for _, f := range figures[1:] {
			if f != figures[0] {
				fail("%s disagree: %v", what, figures)
				return
			}
		}
	}
	nonNegative := func(what string, v float64) {
		if v < 0 {
			fail("%s is negative: %v", what, v)
		}
	}
	stage := func(name string) float64 { return prom.sum("safetsa_stage_duration_seconds_count", "stage", name) }

	var rows codeserver.TenantStats
	for name, ts := range st.Tenants {
		rows.Runs += ts.Runs
		rows.Rejects += ts.Rejects
		rows.Steps += ts.Steps
		rows.Allocs += ts.Allocs
		if ts.InFlight != 0 || prom.sum("safetsa_tenant_runs_in_flight", "tenant", name) != 0 {
			fail("tenant %s has %d runs in flight", name, ts.InFlight)
		}
	}
	equal("run histogram count, runs and tenant runs", stage("run"), float64(st.RunLatency.Count),
		float64(st.Runs), prom.sum("safetsa_runs_total"), float64(rows.Runs), prom.sum("safetsa_tenant_runs_total"))
	equal("guest steps and tenant steps", float64(st.GuestSteps), prom.sum("safetsa_guest_steps_total"),
		float64(rows.Steps), prom.sum("safetsa_tenant_steps_total"))
	equal("guest allocations and tenant allocations", float64(st.GuestAllocs), prom.sum("safetsa_guest_allocs_total"),
		float64(rows.Allocs), prom.sum("safetsa_tenant_allocs_total"))
	equal("tenant rejects and the rows' rejects", float64(st.TenantRejects), prom.sum("safetsa_tenant_rejects_total"),
		float64(rows.Rejects), prom.sum("safetsa_tenant_throttled_total"))
	equal("compile histogram count and compiles", stage("compile"), float64(st.CompileLatency.Count),
		float64(st.Compiles), prom.sum("safetsa_compiles_total"))
	equal("peer_fill histogram count and fills + errors + rejects", stage("peer_fill"), float64(st.PeerFillLatency.Count),
		float64(st.PeerFills+st.PeerFillErrors+st.PeerFillRejects),
		prom.sum("safetsa_peer_fills_total")+prom.sum("safetsa_peer_fill_errors_total")+prom.sum("safetsa_peer_fill_rejects_total"))
	equal("prepare and compile_backend histogram counts", stage("prepare"), float64(st.PrepareLatency.Count),
		stage("compile_backend"), float64(st.CompileBackendLatency.Count))
	equal("in-flight gauges", 0, float64(st.CompilesInFlight), prom.sum("safetsa_compiles_in_flight"),
		float64(st.RunsInFlight), prom.sum("safetsa_runs_in_flight"))

	var kills uint64
	for _, n := range st.Kills {
		kills += n
	}
	equal("kills", float64(kills), prom.sum("safetsa_guest_kills_total"))
	nonNegative("runs less run errors", float64(st.Runs)-float64(st.RunErrors))
	nonNegative("run errors less kills", float64(st.RunErrors)-float64(kills))

	clock.mu.Lock()
	windows := append([]window(nil), clock.windows...)
	clock.mu.Unlock()
	sort.Slice(windows, func(i, j int) bool { return windows[i].start.Before(windows[j].start) })
	for _, tr := range r.Traces {
		began := time.Unix(0, tr.StartUnixNanos)
		i := sort.Search(len(windows), func(i int) bool { return windows[i].start.After(began) }) - 1
		if i < 0 {
			fail("trace %d (%s) began before any request was sent", tr.ID, tr.Name)
			continue
		}
		wall := windows[i].end.Sub(windows[i].start)
		spans := time.Duration(cover(tr.Spans))
		nonNegative(fmt.Sprintf("trace %d (%s): the client's %v less its spans' %v", tr.ID, tr.Name, wall, spans), float64(wall-spans))
	}
	return errs
}

// cover is how much time spans cover, counting overlaps once.
func cover(spans []obs.SpanSnapshot) int64 {
	s := append([]obs.SpanSnapshot(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].OffsetNanos < s[j].OffsetNanos })
	var total, end int64
	for _, sp := range s {
		from, to := max(sp.OffsetNanos, end), sp.OffsetNanos+sp.DurationNanos
		if to > from {
			total += to - from
			end = to
		}
	}
	return total
}

// exposition is a /metrics text as samples.
type exposition []sample

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parse reads the samples of a Prometheus text exposition; label values
// are taken as written, which holds for the names a server labels with.
func parse(text string) exposition {
	var out exposition
	for _, line := range strings.Split(text, "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		s := sample{labels: map[string]string{}}
		s.value, _ = strconv.ParseFloat(value, 64)
		name, labels, _ := strings.Cut(series, "{")
		s.name = name
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, v, ok := strings.Cut(kv, "="); ok {
				s.labels[k] = strings.Trim(v, `"`)
			}
		}
		out = append(out, s)
	}
	return out
}

// Sum adds up the /metrics samples of family name whose labels include
// the label, value pairs given.
func (r Reading) Sum(family string, labels ...string) float64 {
	return parse(r.Metrics).sum(family, labels...)
}

// sum adds up the samples of family name whose labels include the
// label, value pairs given.
func (e exposition) sum(name string, labels ...string) float64 {
	var total float64
next:
	for _, s := range e {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(labels); i += 2 {
			if s.labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}
