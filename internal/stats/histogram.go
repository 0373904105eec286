package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of buckets of a Histogram: one per power
// of two of a nanosecond duration, which covers the full int64 range.
const HistBuckets = 64

// Histogram is a lock-free, log-bucketed latency histogram: bucket 0
// counts zero-duration samples and bucket i (i > 0) counts samples in
// [2^(i-1), 2^i) nanoseconds. Recording is a single atomic add, so
// any number of goroutines may record concurrently; the intended
// deployment is still one shard per worker merged after the run, so
// that sampled hot paths do not bounce a shared cache line.
//
// The zero value is an empty histogram ready for use. A Histogram
// must not be copied after first use.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for a sample of ns nanoseconds.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	return bits.Len64(uint64(ns))
}

// BucketBounds returns the half-open value range [lo, hi) of bucket i
// in nanoseconds.
func BucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), math.Ldexp(1, i)
}

// Record adds one sample of ns nanoseconds. Negative samples (clock
// steps) count as zero.
func (h *Histogram) Record(ns int64) {
	h.counts[bucketOf(ns)].Add(1)
}

// Count returns the total number of recorded samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Merge adds every bucket of o into h. Merging is commutative and
// associative, so per-worker shards may be combined in any order.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
}

// BucketCounts is a plain (non-atomic) bucket-count snapshot. Counter
// snapshots are monotone, so the difference of two snapshots of the
// same histogram is itself a valid count set — the basis of the
// interval-metrics windows (internal/obs/trace).
type BucketCounts [HistBuckets]uint64

// Buckets returns a plain snapshot of the bucket counts.
func (h *Histogram) Buckets() BucketCounts {
	var out BucketCounts
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Add returns the bucket-wise sum of c and o.
func (c BucketCounts) Add(o BucketCounts) BucketCounts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// Sub returns the bucket-wise difference c − o (for deltas over an
// interval; counts are monotone, so c must postdate o).
func (c BucketCounts) Sub(o BucketCounts) BucketCounts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// Count returns the total number of samples in the counts.
func (c BucketCounts) Count() uint64 {
	var n uint64
	for _, b := range c {
		n += b
	}
	return n
}

// Quantile estimates the q-quantile of the counted samples; see
// Histogram.Quantile.
func (c BucketCounts) Quantile(q float64) float64 {
	total := c.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, n := range c {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := BucketBounds(i)
			frac := float64(target-cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return 0 // unreachable: target <= total
}

// Percentiles digests the counts into the report percentiles.
func (c BucketCounts) Percentiles() LatencySummary {
	return LatencySummary{
		Count: c.Count(),
		P50:   c.Quantile(0.50),
		P90:   c.Quantile(0.90),
		P99:   c.Quantile(0.99),
		P999:  c.Quantile(0.999),
	}
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) of the
// recorded samples in nanoseconds, interpolating linearly inside the
// log-sized bucket holding the target rank; the estimate is therefore
// accurate to within a factor of two, the bucket resolution. An empty
// histogram yields 0.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Buckets().Quantile(q)
}

// LatencySummary is the percentile digest the benchmark reports emit
// for one operation type. All percentiles are in nanoseconds.
type LatencySummary struct {
	Count uint64
	P50   float64
	P90   float64
	P99   float64
	P999  float64
}

// Percentiles digests the histogram into the report percentiles, all
// read from one snapshot of the buckets.
func (h *Histogram) Percentiles() LatencySummary {
	return h.Buckets().Percentiles()
}
