package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// exactQuantile is the sorted-sample quantile the recorder approximates.
func exactQuantile(sorted []int64, q float64) float64 {
	return float64(sorted[rank(q, uint64(len(sorted)))-1])
}

func checkQuantiles(t *testing.T, samples []int64) bool {
	t.Helper()
	var r recorder
	for _, v := range samples {
		r.record(v)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	ok := true
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := r.quantile(q), exactQuantile(sorted, q)
		// Within a bucket the error is below its width: exact (±1 ns)
		// under subCount, at most 1/subCount of the value above.
		if tol := math.Max(1, 0.03*want); math.Abs(got-want) > tol {
			t.Errorf("n=%d q=%v: got %.1f, exact %.0f", len(samples), q, got, want)
			ok = false
		}
	}
	return ok
}

func TestQuantilesMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() int64{
		"small":     func() int64 { return rng.Int63n(64) },
		"uniform":   func() int64 { return 100 + rng.Int63n(10_000) },
		"lognormal": func() int64 { return int64(math.Exp(5 + 1.5*rng.NormFloat64())) },
		"bimodal": func() int64 {
			if rng.Intn(100) == 0 {
				return 1_000_000 + rng.Int63n(50_000_000)
			}
			return 120 + rng.Int63n(40)
		},
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 7, 1000, 100_000} {
				samples := make([]int64, n)
				for i := range samples {
					samples[i] = draw()
				}
				checkQuantiles(t, samples)
			}
		})
	}
}

func TestQuantilesMatchExactQuick(t *testing.T) {
	f := func(raw []uint32, scale uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		for i, v := range raw {
			samples[i] = int64(v) << (scale % 10)
		}
		return checkQuantiles(t, samples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketsTileValues(t *testing.T) {
	for i := 1; i < nBuckets; i++ {
		plo, pw := bucketBounds(i - 1)
		lo, w := bucketBounds(i)
		if plo+pw != lo {
			t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, plo+pw)
		}
		if bucketOf(lo) != i || bucketOf(lo+w-1) != i {
			t.Fatalf("bucket %d [%d, %d) maps to %d..%d", i, lo, lo+w, bucketOf(lo), bucketOf(lo+w-1))
		}
		if i >= subCount && float64(w)/float64(lo) > 1.0/subCount {
			t.Fatalf("bucket %d is %d wide at %d", i, w, lo)
		}
	}
}

func TestBeyondCountsTail(t *testing.T) {
	var r recorder
	for v := int64(1); v <= 1000; v++ {
		r.record(v)
	}
	if got := r.beyond(0.99); got != 10 {
		t.Fatalf("beyond(0.99) of 1000 samples = %d, want 10", got)
	}
	if got := r.beyond(0.5); got != 500 {
		t.Fatalf("beyond(0.5) of 1000 samples = %d, want 500", got)
	}
}
