package main

import (
	"math"
	"math/bits"
)

// A recorder is a log-linear latency histogram in the style of
// HdrHistogram: values below subCount nanoseconds get one bucket each,
// and every octave above is split into subCount equal-width buckets.
// A bucket is therefore at most 1/subCount (1.6%) of its lower edge
// wide, and a quantile interpolated inside it is within that of the
// exact sample quantile. Power-of-two buckets are not fine enough: they
// pin every tail quantile in an octave to the same bucket edge.
//
// A recorder is owned by one goroutine; merge recorders afterwards.
type recorder struct {
	counts [nBuckets]uint64
	n      uint64
}

const (
	subBits  = 6
	subCount = 1 << subBits
	// maxBits caps recorded values at 2^maxBits-1 ns (about 73 minutes).
	maxBits  = 42
	nBuckets = (maxBits - subBits + 1) * subCount
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	if v >= 1<<maxBits {
		v = 1<<maxBits - 1
	}
	shift := bits.Len64(v) - subBits - 1 // v>>shift is in [subCount, 2*subCount)
	return (shift+1)*subCount + int(v>>shift) - subCount
}

// bucketBounds returns bucket i's lower edge and width.
func bucketBounds(i int) (lo, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	shift := uint(i/subCount - 1)
	return uint64(i%subCount+subCount) << shift, 1 << shift
}

func (r *recorder) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	r.counts[bucketOf(uint64(ns))]++
	r.n++
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
}

// rank is the 1-based position of the q-quantile among n sorted samples.
func rank(q float64, n uint64) uint64 {
	k := uint64(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond is the number of samples ranked above the q-quantile: the
// evidence behind a tail quantile.
func (r *recorder) beyond(q float64) uint64 {
	if r.n == 0 {
		return 0
	}
	return r.n - rank(q, r.n)
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside its bucket, or NaN when the recorder is empty.
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return math.NaN()
	}
	k := rank(q, r.n)
	var cum uint64
	for i, c := range r.counts {
		if c == 0 || cum+c < k {
			cum += c
			continue
		}
		lo, width := bucketBounds(i)
		frac := (float64(k-cum) - 0.5) / float64(c)
		return float64(lo) + frac*float64(width)
	}
	return math.NaN() // unreachable: k <= n
}
