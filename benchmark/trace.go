package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's side of each call only; nothing is recorded
// inside product code. All spans of one operation share its op id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Mallocs and AllocBytes are heap allocations between start and
	// end; the traced pass runs on one goroutine, so they belong to the
	// span (and its children).
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	heap       bool
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the workload ends. It is used by
// one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	ms     runtime.MemStats
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// heap reads the exact allocation counters (runtime/metrics lags by up
// to a size-class span per P, too coarse for a 100 µs stage).
func (t *tracer) heap() (objects, bytes uint64) {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs, t.ms.TotalAlloc
}

// begin opens a span under the innermost open span. With heap set the
// span also counts allocations: the counters are read before the clock
// starts and, in end, after it stops, so reading them is not charged to
// the span itself. Reading them stops the world, which a span around a
// whole request is better off without.
func (t *tracer) begin(name string, op int, heap bool) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Op: op, Name: name, heap: heap}
	if heap {
		s.Mallocs, s.AllocBytes = t.heap()
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = int64(time.Since(t.origin))
	return id
}

func (t *tracer) end(id int) *span {
	now := int64(time.Since(t.origin))
	s := &t.spans[id]
	s.EndNs = now
	if s.heap {
		objects, bytes := t.heap()
		s.Mallocs = objects - s.Mallocs
		s.AllocBytes = bytes - s.AllocBytes
	}
	t.stack = t.stack[:len(t.stack)-1]
	return s
}

// since is the time elapsed in an open span.
func (t *tracer) since(id int) time.Duration {
	return time.Since(t.origin) - time.Duration(t.spans[id].StartNs)
}

// mark records an interval that began with span parent and lasted d as
// a child of it, without touching the allocation counters.
func (t *tracer) mark(name string, parent int, d time.Duration) {
	p := &t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: p.Op, Name: name,
		StartNs: p.StartNs, EndNs: p.StartNs + int64(d)})
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is total time minus the time covered by child spans.
	SelfMs  float64 `json:"self_ms"`
	MeanUs  float64 `json:"mean_us"`
	Mallocs uint64  `json:"mallocs"`
}

// table aggregates the spans by name, in order of first appearance.
func (t *tracer) table() []layerRow {
	childNs := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			childNs[p] += t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	index := map[string]int{}
	var rows []layerRow
	for i := range t.spans {
		s := &t.spans[i]
		j, ok := index[s.Name]
		if !ok {
			j = len(rows)
			index[s.Name] = j
			rows = append(rows, layerRow{Name: s.Name})
		}
		r := &rows[j]
		r.Count++
		r.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		r.SelfMs += float64(s.EndNs-s.StartNs-childNs[i]) / 1e6
		r.Mallocs += s.Mallocs
	}
	for i := range rows {
		rows[i].MeanUs = rows[i].TotalMs * 1e3 / float64(rows[i].Count)
	}
	return rows
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
