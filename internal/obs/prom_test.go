package obs

import (
	"strings"
	"testing"
)

// TestPromWriterShapes pins the exposition-format line shapes: HELP/TYPE
// headers, samples in the order given, cumulative buckets ending in +Inf,
// seconds units, sorted stage labels.
func TestPromWriterShapes(t *testing.T) {
	var h Histogram
	h.ObserveNanos(1500) // bucket 1 (1µs, 2µs]
	h.ObserveNanos(1500)
	h.ObserveNanos(900) // bucket 0
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("counter", "x_total", "a counter.", Sample{Value: 7})
	p.Family("gauge", "x_now", "a gauge.", Sample{Value: -3})
	p.Family("counter", "x_kills_total", "kills.",
		Sample{Labels: []string{"reason", "step_limit", "tenant", "b"}, Value: 2},
		Sample{Labels: []string{"reason", "alloc_limit", "tenant", "a"}, Value: 1})
	p.Family("counter", "x_empty_total", "no samples yet.")
	p.HistogramVec("x_seconds", "latency.", "stage", map[string]HistogramSnapshot{
		"compile": h.Snapshot(),
	})
	out := sb.String()

	for _, want := range []string{
		"# HELP x_total a counter.\n# TYPE x_total counter\nx_total 7\n",
		"# TYPE x_now gauge\nx_now -3\n",
		// The caller's order, not a sorted one.
		"x_kills_total{reason=\"step_limit\",tenant=\"b\"} 2\nx_kills_total{reason=\"alloc_limit\",tenant=\"a\"} 1\n",
		// A family without samples is still declared.
		"# HELP x_empty_total no samples yet.\n# TYPE x_empty_total counter\n# HELP x_seconds",
		"# TYPE x_seconds histogram\n",
		"x_seconds_bucket{stage=\"compile\",le=\"1e-06\"} 1\n", // cumulative: bucket 0
		"x_seconds_bucket{stage=\"compile\",le=\"2e-06\"} 3\n", // + bucket 1
		"x_seconds_bucket{stage=\"compile\",le=\"+Inf\"} 3\n",
		"x_seconds_sum{stage=\"compile\"} 3.9e-06\n",
		"x_seconds_count{stage=\"compile\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Every non-comment line belongs to a declared family.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.HasPrefix(line, "x_") {
			t.Errorf("stray line %q", line)
		}
	}
}

// TestPromWriterConstLabels pins the per-node label rendering used by
// fleet members: the const label appears on every sample line, before
// any per-sample labels, and never in the HELP/TYPE headers.
func TestPromWriterConstLabels(t *testing.T) {
	var h Histogram
	h.ObserveNanos(1500)
	var sb strings.Builder
	p := NewPromWriter(&sb).ConstLabel("node", "a1")
	p.Family("counter", "x_total", "a counter.", Sample{Value: 7})
	p.Family("gauge", "x_now", "a gauge.", Sample{Value: -3})
	p.Family("counter", "x_kills_total", "kills.", Sample{Labels: []string{"reason", "step_limit"}, Value: 2})
	p.HistogramVec("x_seconds", "latency.", "stage", map[string]HistogramSnapshot{
		"run": h.Snapshot(),
	})
	out := sb.String()

	for _, want := range []string{
		"x_total{node=\"a1\"} 7\n",
		"x_now{node=\"a1\"} -3\n",
		// Const label first, then the sample's labels.
		"x_kills_total{node=\"a1\",reason=\"step_limit\"} 2\n",
		"x_seconds_bucket{node=\"a1\",stage=\"run\",le=\"+Inf\"} 1\n",
		"x_seconds_sum{node=\"a1\",stage=\"run\"} 1.5e-06\n",
		"x_seconds_count{node=\"a1\",stage=\"run\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Headers stay label-free.
	if !strings.Contains(out, "# HELP x_total a counter.\n# TYPE x_total counter\n") {
		t.Errorf("headers polluted by const labels:\n%s", out)
	}

	// An empty value is skipped entirely: single-node exports keep the
	// historical unlabeled line shape.
	sb.Reset()
	NewPromWriter(&sb).ConstLabel("node", "").Family("counter", "x_total", "a counter.", Sample{Value: 1})
	if !strings.Contains(sb.String(), "\nx_total 1\n") {
		t.Errorf("empty const label changed the unlabeled shape:\n%s", sb.String())
	}
}

// TestPromWriterEscapesLabelValues: a label value is escaped as the
// exposition format defines — backslash, double quote and line feed, and
// nothing else. A Go-quoted value wrote a tab as \t, which the format
// does not define.
func TestPromWriterEscapesLabelValues(t *testing.T) {
	var sb strings.Builder
	NewPromWriter(&sb).ConstLabel("node", "a\\b").Family("counter", "x_total", "a counter.",
		Sample{Labels: []string{"tenant", "q\"t\ty\nz é"}, Value: 1})
	if want := "x_total{node=\"a\\\\b\",tenant=\"q\\\"t\ty\\nz é\"} 1\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("output missing %q\n--- got ---\n%s", want, sb.String())
	}
}
