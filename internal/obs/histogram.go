// Package obs is the dependency-free observability substrate of the
// pipeline: fixed-bucket latency histograms with lock-free recording and
// quantile estimation, lightweight span tracing propagated via context
// with a ring buffer of recent traces, and a hand-rolled Prometheus
// text-format renderer. It deliberately imports nothing outside the
// standard library so every layer (driver, codeserver, bench, cmd) can
// depend on it without cycles or new dependencies.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets. Bucket i holds
// durations in (UpperBound(i-1), UpperBound(i)] nanoseconds with
// UpperBound(i) = 1µs·2^i, so the finite range spans 1µs .. ~134s; one
// extra overflow bucket catches everything beyond. Powers of two keep
// recording at a single bits.Len64 plus one atomic add, and bound the
// quantile-estimation error to a factor of two (see Quantile).
const NumBuckets = 28

// firstBucketNanos is the upper bound of bucket 0 (1µs): pipeline stages
// faster than this are "free" at the resolution this system cares about.
const firstBucketNanos = 1000

// BucketUpperBound returns the inclusive upper bound in nanoseconds of
// bucket i. The overflow bucket (i >= NumBuckets) has no finite bound.
func BucketUpperBound(i int) int64 {
	if i >= NumBuckets {
		return int64(^uint64(0) >> 1) // +Inf bucket
	}
	return firstBucketNanos << uint(i)
}

// bucketIndex maps a nanosecond duration to its bucket. Non-positive
// durations land in bucket 0.
func bucketIndex(ns int64) int {
	if ns <= firstBucketNanos {
		return 0
	}
	i := bits.Len64(uint64(ns-1) / firstBucketNanos)
	if i > NumBuckets {
		return NumBuckets
	}
	return i
}

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use; recording is one atomic add per bucket plus sum, so it is safe
// (and cheap) under full concurrency with no locks. A Histogram must not
// be copied after first use.
type Histogram struct {
	buckets [NumBuckets + 1]atomic.Uint64
	sum     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(ns int64) {
	h.buckets[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the current bucket counts. Under concurrent recording
// the copy is not a single atomic cut, but every count it contains was
// true at some point during the call; after recording quiesces it is
// exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNanos = h.sum.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state, the
// input to quantile estimation and rendering.
type HistogramSnapshot struct {
	Buckets  [NumBuckets + 1]uint64
	Count    uint64
	SumNanos int64
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by
// linear interpolation inside the bucket holding the target rank. The
// estimate is always within the true quantile's bucket, so it is off by
// at most a factor of two for values above 1µs. An empty histogram
// reports 0. A rank landing in the overflow bucket has no finite upper
// bound, so it reports BucketUpperBound(NumBuckets) — max int64, the
// "+Inf" saturation marker — rather than silently clamping to the last
// finite bound (~134s) and masquerading as a measurement.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		if i >= NumBuckets {
			return BucketUpperBound(NumBuckets)
		}
		lo := int64(0)
		if i > 0 {
			lo = BucketUpperBound(i - 1)
		}
		hi := BucketUpperBound(i)
		// Position of the target rank inside this bucket, in (0, 1].
		frac := float64(rank-cum) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return BucketUpperBound(NumBuckets)
}

// LatencySummary is the JSON-friendly digest of one histogram: sample
// count, total time, estimated p50/p90/p99, and the number of samples
// that overflowed the finite bucket range. It is what /stats embeds. A
// nonzero OverflowCount means some samples exceeded the ~134s finite range; quantiles whose rank lands among them
// saturate to max int64 instead of reporting a fake finite latency.
type LatencySummary struct {
	Count         uint64 `json:"count"`
	SumNanos      int64  `json:"sum_nanos"`
	OverflowCount uint64 `json:"overflow_count"`
	P50Nanos      int64  `json:"p50_nanos"`
	P90Nanos      int64  `json:"p90_nanos"`
	P99Nanos      int64  `json:"p99_nanos"`
}

// Summary digests the snapshot.
func (s HistogramSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:         s.Count,
		SumNanos:      s.SumNanos,
		OverflowCount: s.Buckets[NumBuckets],
		P50Nanos:      s.Quantile(0.50),
		P90Nanos:      s.Quantile(0.90),
		P99Nanos:      s.Quantile(0.99),
	}
}
