package obs

import (
	"context"
	"sync"
	"time"
)

// Tracer collects per-request traces and retains the N most recent
// completed ones in a ring buffer. A nil *Tracer is a valid disabled
// tracer: StartTrace returns a nil trace and every span operation
// degrades to a no-op, so instrumented code never has to branch on
// whether tracing is on.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	cap    int
	ring   []*Trace // oldest first; len(ring) <= cap
}

// NewTracer creates a tracer retaining the most recent capacity traces
// (<=0 for a default of 64).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{cap: capacity}
}

// Trace is the record of one request: a named root with a tree of
// timed spans underneath. All mutation goes through its mutex so spans
// may be opened from concurrent goroutines of the same request.
type Trace struct {
	mu     sync.Mutex
	id     uint64
	name   string
	start  time.Time
	end    time.Time
	spans  []*Span // top-level spans
	tracer *Tracer
}

// Span is one timed operation inside a trace. Spans nest: a span started
// while another span of the same trace is current in the context becomes
// its child.
type Span struct {
	trace    *Trace
	name     string
	start    time.Time
	end      time.Time
	children []*Span
}

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// StartTrace opens a new trace and installs it in the returned context.
// Finish must be called to publish the trace into the ring buffer. On a
// nil tracer it returns ctx unchanged and a nil trace.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	t.mu.Lock()
	t.nextID++
	tr := &Trace{id: t.nextID, name: name, start: time.Now(), tracer: t}
	t.mu.Unlock()
	return context.WithValue(ctx, traceKey, tr), tr
}

// JoinTrace is StartTrace for a step that may run inside a caller's
// trace: when ctx already carries one, the step's spans belong there, so
// it returns ctx unchanged and a nil trace (whose Finish is a no-op).
func (t *Tracer) JoinTrace(ctx context.Context, name string) (context.Context, *Trace) {
	if tr, _ := ctx.Value(traceKey).(*Trace); tr != nil {
		return ctx, nil
	}
	return t.StartTrace(ctx, name)
}

// Finish closes the trace and publishes it as the most recent entry of
// its tracer's ring buffer, evicting the oldest past capacity. Open
// spans are clamped to the trace end. Nil-safe.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.end = time.Now()
	tr.mu.Unlock()
	t := tr.tracer
	t.mu.Lock()
	t.ring = append(t.ring, tr)
	if len(t.ring) > t.cap {
		t.ring = t.ring[len(t.ring)-t.cap:]
	}
	t.mu.Unlock()
}

// Start opens a span named name under the current span (or at the top
// level of the current trace) and returns a context with the new span
// current. Without a trace in ctx it returns ctx unchanged and a nil
// span, whose End is a no-op — instrumentation is free when untraced.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tr, _ := ctx.Value(traceKey).(*Trace)
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{trace: tr, name: name, start: time.Now()}
	parent, _ := ctx.Value(spanKey).(*Span)
	tr.mu.Lock()
	if parent != nil && parent.trace == tr {
		parent.children = append(parent.children, sp)
	} else {
		tr.spans = append(tr.spans, sp)
	}
	tr.mu.Unlock()
	return context.WithValue(ctx, spanKey, sp), sp
}

// End closes the span. Nil-safe.
func (sp *Span) End() {
	if sp != nil {
		sp.endAt(time.Now())
	}
}

func (sp *Span) endAt(at time.Time) {
	sp.trace.mu.Lock()
	sp.end = at
	sp.trace.mu.Unlock()
}

// Timed runs fn as one stage: inside a span named name (when ctx carries
// a trace) and as one sample of h, failed runs included. Both are fed by
// the same two clock readings, so a stage's span and its histogram
// cannot disagree about what the stage cost.
func Timed(ctx context.Context, name string, h *Histogram, fn func(context.Context) error) error {
	ctx, sp := Start(ctx, name)
	start := time.Now()
	if sp != nil {
		start = sp.start // immutable once the span exists
	}
	err := fn(ctx)
	end := time.Now()
	h.Observe(end.Sub(start))
	if sp != nil {
		sp.endAt(end)
	}
	return err
}

// TraceSnapshot is the JSON form of one completed trace, as served by
// /debug/traces.
type TraceSnapshot struct {
	ID             uint64         `json:"id"`
	Name           string         `json:"name"`
	StartUnixNanos int64          `json:"start_unix_nanos"`
	DurationNanos  int64          `json:"duration_nanos"`
	Spans          []SpanSnapshot `json:"spans,omitempty"`
}

// SpanSnapshot is the JSON form of one span: offset is relative to the
// trace start, so a trace reads as a waterfall without absolute clocks.
type SpanSnapshot struct {
	Name          string         `json:"name"`
	OffsetNanos   int64          `json:"offset_nanos"`
	DurationNanos int64          `json:"duration_nanos"`
	Children      []SpanSnapshot `json:"children,omitempty"`
}

// Recent returns snapshots of the retained traces, most recent first.
// Nil-safe (returns nil).
func (t *Tracer) Recent() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := make([]*Trace, len(t.ring))
	copy(traces, t.ring)
	t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		out = append(out, traces[i].snapshot())
	}
	return out
}

func (tr *Trace) snapshot() TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := TraceSnapshot{
		ID:             tr.id,
		Name:           tr.name,
		StartUnixNanos: tr.start.UnixNano(),
		DurationNanos:  tr.end.Sub(tr.start).Nanoseconds(),
	}
	for _, sp := range tr.spans {
		s.Spans = append(s.Spans, sp.snapshotLocked(tr.start, tr.end))
	}
	return s
}

func (sp *Span) snapshotLocked(base, clamp time.Time) SpanSnapshot {
	end := sp.end
	if end.IsZero() {
		end = clamp // span never closed: report it as running to the end
	}
	s := SpanSnapshot{
		Name:          sp.name,
		OffsetNanos:   sp.start.Sub(base).Nanoseconds(),
		DurationNanos: end.Sub(sp.start).Nanoseconds(),
	}
	for _, c := range sp.children {
		s.Children = append(s.Children, c.snapshotLocked(base, clamp))
	}
	return s
}
