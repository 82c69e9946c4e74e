package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket layout: bucket i covers
// (1µs·2^(i-1), 1µs·2^i], bucket 0 additionally absorbs everything at or
// below 1µs, and the overflow bucket catches the rest.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, // clamped, never panics
		{0, 0},
		{1, 0},
		{999, 0},
		{1000, 0}, // exactly the bucket-0 bound
		{1001, 1}, // first value past it
		{2000, 1}, // exactly UB[1]
		{2001, 2},
		{4000, 2},
		{4001, 3},
		{int64(time.Millisecond), 10}, // 1ms = 1000µs ∈ (512µs, 1024µs]
		{int64(time.Second), 20},      // 1s ∈ (0.524s, 1.049s]
		{BucketUpperBound(NumBuckets - 1), NumBuckets - 1},
		{BucketUpperBound(NumBuckets-1) + 1, NumBuckets}, // overflow
		{int64(^uint64(0) >> 2), NumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Boundaries are strictly increasing powers of two.
	for i := 1; i < NumBuckets; i++ {
		if BucketUpperBound(i) != 2*BucketUpperBound(i-1) {
			t.Errorf("bound %d = %d, want double of %d", i, BucketUpperBound(i), BucketUpperBound(i-1))
		}
	}
	// Every bucket index round-trips: a value at a bucket's upper bound
	// lands in that bucket.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketIndex(BucketUpperBound(i)); got != i {
			t.Errorf("UB[%d]=%d lands in bucket %d", i, BucketUpperBound(i), got)
		}
	}
}

// TestQuantileErrorBounds is the property check for quantile estimation:
// for pseudo-random workloads the estimate must land inside the bucket
// holding the true quantile, i.e. within a factor of two of the truth
// for values above 1µs.
func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		n := 100 + rng.Intn(5000)
		samples := make([]int64, n)
		for i := range samples {
			// Spread over ~5 orders of magnitude: 2µs .. 200ms.
			samples[i] = 2000 + int64(rng.Float64()*rng.Float64()*2e8)
			h.ObserveNanos(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99} {
			rank := int(q * float64(n))
			if rank < 1 {
				rank = 1
			}
			truth := samples[rank-1]
			est := s.Quantile(q)
			if est < truth/2 || est > truth*2 {
				t.Fatalf("trial %d: q%v estimate %d outside [%d, %d] (truth %d, n=%d)",
					trial, q, est, truth/2, truth*2, truth, n)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}

	// Single sample: every quantile is inside its bucket.
	var h Histogram
	h.ObserveNanos(5000) // bucket (4µs, 8µs]
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 1.0} {
		if got := s.Quantile(q); got <= 4000 || got > 8000 {
			t.Errorf("q%v = %d, want in (4000, 8000]", q, got)
		}
	}

	// Overflow samples saturate to the +Inf marker, not to the last
	// finite bound.
	var o Histogram
	o.ObserveNanos(BucketUpperBound(NumBuckets-1) + 12345)
	if got := o.Snapshot().Quantile(0.5); got != BucketUpperBound(NumBuckets) {
		t.Errorf("overflow quantile = %d, want saturation marker %d", got, BucketUpperBound(NumBuckets))
	}
}

// TestQuantileOverflowSaturates is the regression test for the silent
// overflow clamp: a rank that lands in the overflow bucket used to
// report the last finite bound (~134s) as if it were a real measurement.
// It must instead report BucketUpperBound(NumBuckets) — max int64, the
// "+Inf" marker — and the summary must expose how many samples
// overflowed, so a wedged stage cannot hide behind a plausible-looking
// p99.
func TestQuantileOverflowSaturates(t *testing.T) {
	saturated := BucketUpperBound(NumBuckets)
	if saturated != int64(^uint64(0)>>1) {
		t.Fatalf("saturation marker = %d, want max int64", saturated)
	}

	// 98 fast samples and 2 wedged ones: p50/p90 stay finite, p99's rank
	// (99 of 100) lands among the overflow samples and must saturate.
	var h Histogram
	for i := 0; i < 98; i++ {
		h.ObserveNanos(5000)
	}
	h.ObserveNanos(BucketUpperBound(NumBuckets-1) + 1)
	h.ObserveNanos(BucketUpperBound(NumBuckets-1) + 2)
	sum := h.Snapshot().Summary()
	if sum.OverflowCount != 2 {
		t.Errorf("overflow_count = %d, want 2", sum.OverflowCount)
	}
	if sum.P50Nanos >= BucketUpperBound(NumBuckets-1) {
		t.Errorf("p50 = %d, want finite (only 10%% of samples overflowed)", sum.P50Nanos)
	}
	if sum.P99Nanos != saturated {
		t.Errorf("p99 = %d, want saturation marker %d", sum.P99Nanos, saturated)
	}

	// All-overflow histogram: every quantile saturates, none reports the
	// old clamp value.
	var o Histogram
	o.ObserveNanos(BucketUpperBound(NumBuckets-1) + 777)
	o.ObserveNanos(int64(^uint64(0) >> 2))
	osum := o.Snapshot().Summary()
	if osum.OverflowCount != 2 {
		t.Errorf("overflow_count = %d, want 2", osum.OverflowCount)
	}
	for name, v := range map[string]int64{"p50": osum.P50Nanos, "p90": osum.P90Nanos, "p99": osum.P99Nanos} {
		if v != saturated {
			t.Errorf("%s = %d, want saturation marker %d", name, v, saturated)
		}
		if v == BucketUpperBound(NumBuckets-1) {
			t.Errorf("%s reports the last finite bound — the silent clamp is back", name)
		}
	}

	// A histogram with no overflow keeps overflow_count at zero.
	var f Histogram
	f.ObserveNanos(1234)
	if got := f.Snapshot().Summary().OverflowCount; got != 0 {
		t.Errorf("finite-only overflow_count = %d, want 0", got)
	}
}

// TestConcurrentRecordingSumsExactly is the concurrency contract: counts
// and sums from concurrent recorders add exactly — no sampling, no loss.
func TestConcurrentRecordingSumsExactly(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
	)
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.ObserveNanos(int64(g*perG + i + 1))
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	wantSum := int64(total) * (total + 1) / 2 // 1+2+...+total
	s := h.Snapshot()
	if s.Count != total || s.SumNanos != wantSum {
		t.Errorf("snapshot count/sum = %d/%d, want %d/%d", s.Count, s.SumNanos, total, wantSum)
	}
	var buckets uint64
	for _, c := range s.Buckets {
		buckets += c
	}
	if buckets != s.Count {
		t.Errorf("buckets hold %d samples, count says %d", buckets, s.Count)
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Microsecond)
	}
	sum := h.Snapshot().Summary()
	if sum.Count != 10 {
		t.Errorf("count = %d, want 10", sum.Count)
	}
	if sum.SumNanos != 50_000 {
		t.Errorf("sum = %d, want 50000", sum.SumNanos)
	}
	// All samples in (4µs, 8µs]: every quantile must land there.
	for name, v := range map[string]int64{"p50": sum.P50Nanos, "p90": sum.P90Nanos, "p99": sum.P99Nanos} {
		if v <= 4000 || v > 8000 {
			t.Errorf("%s = %d, want in (4000, 8000]", name, v)
		}
	}
	if sum.P50Nanos > sum.P90Nanos || sum.P90Nanos > sum.P99Nanos {
		t.Errorf("quantiles not monotone: %+v", sum)
	}
}
