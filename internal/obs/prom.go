package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) by hand — no client library, just the few line shapes
// the format defines. Write errors are deliberately ignored: the writer
// targets HTTP response bodies where a broken peer surfaces elsewhere.
type PromWriter struct {
	w io.Writer
	// constLabels is rendered (in insertion order) on every sample line,
	// before any per-sample labels. It is how a fleet member stamps its
	// node identity onto every series it exports.
	constLabels []string // alternating name, value
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// ConstLabel attaches a label pair to every sample line the writer emits
// (per-node identity in a fleet, for example). Returns the writer for
// chaining; empty values are skipped so unlabeled single-node exports
// render exactly as before.
func (p *PromWriter) ConstLabel(name, value string) *PromWriter {
	if value != "" {
		p.constLabels = append(p.constLabels, name, value)
	}
	return p
}

// labels renders the label block for one sample: the const labels
// followed by the extra (name, value) pairs, or "" when there are none.
func (p *PromWriter) labels(extra ...string) string {
	if len(p.constLabels) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	emit := func(pairs []string) {
		for i := 0; i+1 < len(pairs); i += 2 {
			if n > 0 {
				b.WriteByte(',')
			}
			b.WriteString(pairs[i])
			b.WriteString(`="`)
			labelValue.WriteString(&b, pairs[i+1])
			b.WriteByte('"')
			n++
		}
	}
	emit(p.constLabels)
	emit(extra)
	b.WriteByte('}')
	return b.String()
}

// labelValue escapes a label value as the exposition format defines: a
// backslash, a double quote and a line feed, and nothing else.
var labelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (p *PromWriter) header(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample is one line of a counter or gauge family: alternating label
// name/value pairs, rendered after the writer's const labels, and the
// value.
type Sample struct {
	Labels []string
	Value  int64
}

// Family emits one counter or gauge family (typ "counter" or "gauge"):
// the HELP/TYPE header, then the samples in the order given — callers
// order them so the exposition stays deterministic. A family without
// samples still emits its header (a legal sample-less family), so the
// metric name is discoverable before the first sample exists.
func (p *PromWriter) Family(typ, name, help string, samples ...Sample) {
	p.header(name, help, typ)
	for _, s := range samples {
		fmt.Fprintf(p.w, "%s%s %d\n", name, p.labels(s.Labels...), s.Value)
	}
}

// seconds renders a nanosecond quantity as Prometheus-conventional
// seconds with full float precision.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// HistogramVec emits one histogram family keyed by a single label (the
// pipeline stage), in sorted label order. Buckets are cumulative with
// upper bounds in seconds, per the Prometheus histogram convention;
// empty tail buckets below the overflow are still emitted so scrapers
// see a fixed bucket layout.
func (p *PromWriter) HistogramVec(name, help, label string, snaps map[string]HistogramSnapshot) {
	p.header(name, help, "histogram")
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := snaps[k]
		var cum uint64
		for i := 0; i < NumBuckets; i++ {
			cum += s.Buckets[i]
			fmt.Fprintf(p.w, "%s_bucket%s %d\n",
				name, p.labels(label, k, "le", seconds(BucketUpperBound(i))), cum)
		}
		cum += s.Buckets[NumBuckets]
		fmt.Fprintf(p.w, "%s_bucket%s %d\n", name, p.labels(label, k, "le", "+Inf"), cum)
		fmt.Fprintf(p.w, "%s_sum%s %s\n", name, p.labels(label, k), seconds(s.SumNanos))
		fmt.Fprintf(p.w, "%s_count%s %d\n", name, p.labels(label, k), s.Count)
	}
}
