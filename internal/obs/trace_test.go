package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestSpanNesting runs a synthetic compile pipeline through the tracer
// and pins the span tree: top-level stages in order, sub-stages nested
// under their parent, offsets inside the trace window.
func TestSpanNesting(t *testing.T) {
	tr := NewTracer(8)
	ctx, trace := tr.StartTrace(context.Background(), "compile")

	fctx, frontend := Start(ctx, "frontend")
	_, parse := Start(fctx, "parse")
	parse.End()
	_, sema := Start(fctx, "sema")
	sema.End()
	frontend.End()

	// Note: started from ctx, not fctx, so "encode" is a sibling of
	// "frontend", not a child.
	_, encode := Start(ctx, "encode")
	encode.End()
	trace.Finish()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("got %d traces, want 1", len(recent))
	}
	ts := recent[0]
	if ts.Name != "compile" || ts.ID == 0 {
		t.Errorf("trace header = %+v", ts)
	}
	if ts.DurationNanos < 0 {
		t.Errorf("negative trace duration %d", ts.DurationNanos)
	}
	if len(ts.Spans) != 2 || ts.Spans[0].Name != "frontend" || ts.Spans[1].Name != "encode" {
		t.Fatalf("top-level spans = %+v, want [frontend encode]", ts.Spans)
	}
	fe := ts.Spans[0]
	if len(fe.Children) != 2 || fe.Children[0].Name != "parse" || fe.Children[1].Name != "sema" {
		t.Fatalf("frontend children = %+v, want [parse sema]", fe.Children)
	}
	if len(ts.Spans[1].Children) != 0 {
		t.Errorf("encode has children: %+v", ts.Spans[1].Children)
	}
	for _, sp := range []SpanSnapshot{fe, fe.Children[0], fe.Children[1], ts.Spans[1]} {
		if sp.OffsetNanos < 0 || sp.DurationNanos < 0 {
			t.Errorf("span %s has negative offset/duration: %+v", sp.Name, sp)
		}
		if sp.OffsetNanos+sp.DurationNanos > ts.DurationNanos {
			t.Errorf("span %s overruns its trace: %+v vs %d", sp.Name, sp, ts.DurationNanos)
		}
	}
	// Children start no earlier than their parent.
	for _, c := range fe.Children {
		if c.OffsetNanos < fe.OffsetNanos {
			t.Errorf("child %s starts before parent: %d < %d", c.Name, c.OffsetNanos, fe.OffsetNanos)
		}
	}
}

// TestRingRetention: the buffer keeps exactly the N most recent traces,
// newest first.
func TestRingRetention(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		_, trace := tr.StartTrace(context.Background(), "req")
		trace.Finish()
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("retained %d traces, want 4", len(recent))
	}
	for i, ts := range recent {
		if want := uint64(10 - i); ts.ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, ts.ID, want)
		}
	}
}

// TestJoinTrace: a step that may run inside a caller's trace records its
// spans there and publishes nothing of its own; alone, it is StartTrace.
func TestJoinTrace(t *testing.T) {
	tr := NewTracer(4)
	ctx, own := tr.JoinTrace(context.Background(), "step")
	if own == nil {
		t.Fatal("JoinTrace without a trace in the context started none")
	}
	inner, joined := tr.JoinTrace(ctx, "step")
	if joined != nil || inner != ctx {
		t.Error("JoinTrace inside a trace started a second one")
	}
	_, sp := Start(inner, "work")
	sp.End()
	joined.Finish() // must not panic, must not publish
	own.Finish()
	recent := tr.Recent()
	if len(recent) != 1 || len(recent[0].Spans) != 1 || recent[0].Spans[0].Name != "work" {
		t.Errorf("traces = %+v, want one trace holding the joined step's span", recent)
	}
}

// TestDisabledTracingIsFree: nil tracers, traceless contexts, and nil
// spans are all no-ops, so instrumented code paths need no branches.
func TestDisabledTracingIsFree(t *testing.T) {
	var nilTracer *Tracer
	ctx, trace := nilTracer.StartTrace(context.Background(), "x")
	if trace != nil {
		t.Error("nil tracer produced a trace")
	}
	trace.Finish() // must not panic
	if got := nilTracer.Recent(); got != nil {
		t.Errorf("nil tracer Recent() = %v", got)
	}

	ctx2, sp := Start(ctx, "stage")
	if sp != nil {
		t.Error("traceless context produced a span")
	}
	if ctx2 != ctx {
		t.Error("traceless Start changed the context")
	}
	sp.End() // must not panic
}

// TestUnfinishedSpanClamped: a span never closed (abandoned stage
// goroutine) is reported as running to the end of the trace rather than
// with a garbage duration.
func TestUnfinishedSpanClamped(t *testing.T) {
	tr := NewTracer(2)
	ctx, trace := tr.StartTrace(context.Background(), "req")
	Start(ctx, "abandoned") // never ended
	trace.Finish()
	ts := tr.Recent()[0]
	if len(ts.Spans) != 1 {
		t.Fatalf("spans = %+v", ts.Spans)
	}
	sp := ts.Spans[0]
	if sp.DurationNanos < 0 || sp.OffsetNanos+sp.DurationNanos > ts.DurationNanos {
		t.Errorf("abandoned span not clamped: %+v vs trace %d", sp, ts.DurationNanos)
	}
}

// TestTimedFeedsSpanAndHistogramOneClock: a stage run through Timed is
// one span and one histogram sample of exactly the same duration, nested
// spans hang under it, a failed stage is still a sample, and without a
// trace the histogram is fed all the same.
func TestTimedFeedsSpanAndHistogramOneClock(t *testing.T) {
	tr := NewTracer(2)
	ctx, trace := tr.StartTrace(context.Background(), "req")
	var h Histogram
	failed := errors.New("stage failed")
	err := Timed(ctx, "stage", &h, func(ctx context.Context) error {
		_, inner := Start(ctx, "inner")
		time.Sleep(time.Millisecond)
		inner.End()
		return failed
	})
	trace.Finish()
	if err != failed {
		t.Fatalf("Timed returned %v, want the stage's error", err)
	}
	ts := tr.Recent()[0]
	if len(ts.Spans) != 1 || ts.Spans[0].Name != "stage" {
		t.Fatalf("spans = %+v, want one stage span", ts.Spans)
	}
	sp := ts.Spans[0]
	if len(sp.Children) != 1 || sp.Children[0].Name != "inner" {
		t.Errorf("stage children = %+v, want [inner]", sp.Children)
	}
	if s := h.Snapshot(); s.Count != 1 || s.SumNanos != sp.DurationNanos || sp.DurationNanos < int64(time.Millisecond) {
		t.Errorf("histogram count %d sum %d ns, span %d ns: want one sample of the span's own duration",
			s.Count, s.SumNanos, sp.DurationNanos)
	}

	if err := Timed(context.Background(), "stage", &h, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := h.Snapshot().Count; n != 2 {
		t.Errorf("untraced stage not sampled: count %d", n)
	}
}

// TestConcurrentSpans exercises one trace from many goroutines; run
// under -race this is the data-race gate for the span tree.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(2)
	ctx, trace := tr.StartTrace(context.Background(), "req")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sctx, sp := Start(ctx, "stage")
				_, child := Start(sctx, "sub")
				child.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	trace.Finish()
	ts := tr.Recent()[0]
	if len(ts.Spans) != 8*50 {
		t.Errorf("got %d top-level spans, want %d", len(ts.Spans), 8*50)
	}
	for _, sp := range ts.Spans {
		if len(sp.Children) != 1 || sp.Children[0].Name != "sub" {
			t.Fatalf("span children wrong: %+v", sp)
		}
	}
}
