package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safetsa/internal/codeserver"
)

// outcome is what one operation returned, however it was issued.
type outcome struct {
	err    error
	output string
	steps  int64
	hash   string
	cached bool
}

// recorder counts checked operations and keeps the first failures.
type recorder struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string
}

const keptFailures = 8

func (r *recorder) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.first) < keptFailures {
		r.first = append(r.first, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check compares one outcome with the oracle: the reference output byte
// for byte, and a step count that repeats for the (unit, kind).
func (r *recorder) check(via string, o op, oc outcome) bool {
	r.attempted.Add(1)
	p, kind := o.prog, kindNames[o.kind]
	switch {
	case oc.err != nil:
		r.fail("%s %s of %s: %v", via, kind, p.name, oc.err)
	case o.kind == kindCompile && oc.cached:
		r.fail("%s %s of %s: served from the store, want a miss", via, kind, p.name)
	case o.kind == kindCompileCached && (!oc.cached || oc.hash != p.hash):
		r.fail("%s %s of %s: cached=%v hash=%s, want a store hit on %s", via, kind, p.name, oc.cached, oc.hash, p.hash)
	case o.kind >= kindRun && oc.output != p.want:
		r.fail("%s %s of %s: printed %q, reference says %q", via, kind, p.name, oc.output, p.want)
	case o.kind >= kindRun && !p.steps[o.kind].CompareAndSwap(0, oc.steps) && p.steps[o.kind].Load() != oc.steps:
		r.fail("%s %s of %s: %d steps, earlier %d", via, kind, p.name, oc.steps, p.steps[o.kind].Load())
	default:
		return true
	}
	return false
}

// request builds the HTTP exchange for an operation.
func (h *harness) request(o op) (request, error) {
	switch o.kind {
	case kindCompile:
		return h.compileRequest(o.prog.salted(o.salt))
	case kindCompileCached:
		if o.prog.compileBody == nil {
			rq, err := h.compileRequest(o.prog.files)
			if err != nil {
				return request{}, err
			}
			o.prog.compileBody = rq.body
		}
		return request{method: http.MethodPost, url: h.base + "/compile", body: o.prog.compileBody}, nil
	case kindStream:
		return h.streamRequest(o.prog, o.tenant), nil
	}
	return h.runRequest(o.prog, o.tenant), nil
}

// overHTTP issues a prepared request and decodes the response.
func (h *harness) overHTTP(o op, rq request) (outcome, time.Duration) {
	status, data, lat, err := h.do(rq)
	if err != nil {
		return outcome{err: err}, lat
	}
	if status != http.StatusOK {
		// A 429 or any other refusal is a failed operation.
		return outcome{err: fmt.Errorf("status %d: %.200s", status, data)}, lat
	}
	if o.kind <= kindCompileCached {
		var cr codeserver.CompileResponse
		err := json.Unmarshal(data, &cr)
		return outcome{err: err, hash: cr.Hash, cached: cr.Cached}, lat
	}
	var res codeserver.RunResult
	if err := json.Unmarshal(data, &res); err != nil {
		return outcome{err: err}, lat
	}
	return runOutcome(res, nil), lat
}

// sample is one timed operation.
type sample struct {
	kind opKind
	prog *program
	ms   float64
	ok   bool
}

type roundResult struct {
	samples []sample
	wallS   float64
	good    int
}

func (r *roundResult) opsPerS() float64 { return float64(r.good) / r.wallS }

func (r *roundResult) latencies(keep func(*sample) bool) []float64 {
	var xs []float64
	for i := range r.samples {
		if s := &r.samples[i]; s.ok && (keep == nil || keep(s)) {
			xs = append(xs, s.ms)
		}
	}
	return xs
}

// round runs one closed loop: numClients clients, each sending its next
// request only when the previous reply has arrived. Callers of safetsad
// are build tools and consumers that wait for their answer.
func (h *harness) round(rec *recorder, perClient [][]op) (*roundResult, error) {
	reqs := make([][]request, len(perClient))
	out := make([][]sample, len(perClient))
	for c, ops := range perClient {
		reqs[c] = make([]request, len(ops))
		out[c] = make([]sample, len(ops))
		for i, o := range ops {
			rq, err := h.request(o)
			if err != nil {
				return nil, err
			}
			reqs[c][i] = rq
		}
	}
	runtime.GC()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i, o := range perClient[c] {
				oc, lat := h.overHTTP(o, reqs[c][i])
				out[c][i] = sample{kind: o.kind, prog: o.prog, ms: float64(lat) / 1e6, ok: rec.check("http", o, oc)}
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	res := &roundResult{wallS: time.Since(t0).Seconds()}
	for _, ss := range out {
		res.samples = append(res.samples, ss...)
	}
	for i := range res.samples {
		if res.samples[i].ok {
			res.good++
		}
	}
	return res, nil
}
