package batch

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPrepSortsAndDedups(t *testing.T) {
	in := []int64{5, 1, 5, 3, 1, 9, 3, 3}
	b := Prep(in)
	defer b.Put()
	want := []int64{1, 3, 5, 9}
	if !slices.Equal(b.K, want) {
		t.Fatalf("Prep(%v).K = %v, want %v", in, b.K, want)
	}
	// The input must be untouched.
	if !slices.Equal(in, []int64{5, 1, 5, 3, 1, 9, 3, 3}) {
		t.Fatalf("Prep modified its input: %v", in)
	}
}

func TestPrepEmpty(t *testing.T) {
	b := Prep(nil)
	defer b.Put()
	if len(b.K) != 0 {
		t.Fatalf("Prep(nil).K = %v, want empty", b.K)
	}
}

func TestPrepQuick(t *testing.T) {
	f := func(keys []int64) bool {
		b := Prep(keys)
		defer b.Put()
		if !slices.IsSorted(b.K) {
			return false
		}
		seen := map[int64]bool{}
		for _, k := range b.K {
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		// Same key set as the input.
		for _, k := range keys {
			if !seen[k] {
				return false
			}
		}
		return len(seen) <= len(keys)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpan(t *testing.T) {
	ks := []int64{1, 3, 5, 7, 9}
	cases := []struct {
		lo, hi int64
		want   []int64
	}{
		{0, 10, []int64{1, 3, 5, 7, 9}},
		{3, 8, []int64{3, 5, 7}},
		{3, 7, []int64{3, 5}}, // hi exclusive
		{4, 5, []int64{}},     // empty window between keys
		{10, 20, []int64{}},   // past the end
		{-5, 1, []int64{}},    // before the start, hi exclusive
		{-5, 2, []int64{1}},   //
		{9, 10, []int64{9}},   // exactly the last key
		{5, 5, []int64{}},     // degenerate range
	}
	for _, c := range cases {
		got := Span(ks, c.lo, c.hi)
		if len(got) != len(c.want) || (len(got) > 0 && !slices.Equal(got, c.want)) {
			t.Errorf("Span(%v, %d, %d) = %v, want %v", ks, c.lo, c.hi, got, c.want)
		}
	}
}

// TestSpanCoversPartition checks that splitting a sorted batch at a
// boundary list loses and duplicates nothing — the property the
// sharded façade's batch split depends on.
func TestSpanCoversPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ks := make([]int64, 200)
	for i := range ks {
		ks[i] = int64(rng.Intn(1000))
	}
	b := Prep(ks)
	defer b.Put()
	bounds := []int64{0, 128, 256, 512, 640, 1024}
	var rebuilt []int64
	for i := 0; i+1 < len(bounds); i++ {
		rebuilt = append(rebuilt, Span(b.K, bounds[i], bounds[i+1])...)
	}
	if !slices.Equal(rebuilt, b.K) {
		t.Fatalf("partition by spans lost keys: got %d, want %d", len(rebuilt), len(b.K))
	}
}

func TestBufReuse(t *testing.T) {
	b := Get()
	b.K = append(b.K, 1, 2, 3)
	b.Put()
	c := Get()
	defer c.Put()
	if len(c.K) != 0 {
		t.Fatalf("recycled Buf not reset: K = %v", c.K)
	}
}

// calls records the keys the fallback hands a Point, in order.
type calls []int64

func (c *calls) Insert(v int64) bool   { *c = append(*c, v); return true }
func (c *calls) Remove(v int64) bool   { *c = append(*c, v); return true }
func (c *calls) Contains(v int64) bool { *c = append(*c, v); return true }

// TestFallbackAppliesCanonicalKeys: the per-key fallback applies each
// distinct key once, ascending, whether the batch arrives canonical
// (taken as it is) or not (prepped): a repeat next to its twin, a
// descent or an unsorted mix.
func TestFallbackAppliesCanonicalKeys(t *testing.T) {
	for _, in := range [][]int64{
		nil, {7}, {1, 2, 5}, {1, 2, 2, 5}, {5, 2, 1}, {5, 1, 5, 2, 1},
	} {
		want := slices.Clone(in)
		slices.Sort(want)
		want = slices.Compact(want)
		for name, op := range map[string]func(Batcher, []int64) int{
			"InsertAll": Batcher.InsertAll, "RemoveAll": Batcher.RemoveAll, "ContainsAll": Batcher.ContainsAll,
		} {
			var c calls
			n := op(AsBatcher(&c), in)
			if !slices.Equal(c, want) || n != len(want) {
				t.Errorf("%s(%v) applied %v and returned %d, want %v and %d", name, in, []int64(c), n, want, len(want))
			}
		}
	}
}

func BenchmarkPrep64(b *testing.B) {
	keys := make([]int64, 64)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = int64(rng.Intn(20000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Prep(keys)
		buf.Put()
	}
}
