package adapt

import (
	"slices"
	"testing"
	"testing/quick"
)

// The TestQuantileBounds* names are historical: the controller once
// split the partition along a weighted quantile of the load histogram.
// They now check the histogram's one remaining use, the fair-share test
// that picks which shards' spin ceilings widen.

// above returns the shards aboveFairShare selects.
func above(loads []uint64) []int {
	var out []int
	for i := range loads {
		if aboveFairShare(loads, i) {
			out = append(out, i)
		}
	}
	return out
}

// TestQuantileBoundsSkew: skewed loads select exactly the shards
// strictly above 1/S of the total — one hot shard, both flanks of a hot
// seam, and not a shard sitting exactly at its fair share.
func TestQuantileBoundsSkew(t *testing.T) {
	for _, c := range []struct {
		loads []uint64
		want  []int
	}{
		{[]uint64{4000, 0, 0, 0}, []int{0}},
		{[]uint64{1800, 1800, 200, 200}, []int{0, 1}},
		{[]uint64{0, 0, 10, 1}, []int{2}},
		{[]uint64{200, 100, 100, 0}, []int{0}}, // shard 1 at exactly 100 of 400
	} {
		if got := above(c.loads); !slices.Equal(got, c.want) {
			t.Errorf("loads %v: above fair share %v, want %v", c.loads, got, c.want)
		}
	}
}

// TestQuantileBoundsUniformIsNoop: a balanced histogram selects no
// shard, so even sustained contention widens no ceiling.
func TestQuantileBoundsUniformIsNoop(t *testing.T) {
	if got := above([]uint64{500, 500, 500, 500}); got != nil {
		t.Fatalf("uniform load above fair share: %v", got)
	}
	h := newHarness(t, Config{})
	for i := 0; i < 10; i++ {
		h.interval(0.30, 0.0, uniform)
	}
	if st := h.c.snapshotStats(); st.BackoffWiden != 0 {
		t.Fatalf("uniform load widened %d times, want 0", st.BackoffWiden)
	}
}

// TestQuantileBoundsDegenerate: no histogram or a single shard makes
// every policy eligible (the plain-set case); an idle interval makes
// none eligible.
func TestQuantileBoundsDegenerate(t *testing.T) {
	if !aboveFairShare(nil, 0) {
		t.Fatal("nil loads: the single policy is not eligible")
	}
	if !aboveFairShare([]uint64{0}, 0) || !aboveFairShare([]uint64{7}, 0) {
		t.Fatal("one shard: its policy is not eligible")
	}
	if got := above([]uint64{0, 0, 0, 0}); got != nil {
		t.Fatalf("zero total load above fair share: %v", got)
	}
}

// TestQuantileBoundsInvariants: for arbitrary loads over 2+ shards
// with a positive total, some shard is never above its fair share, and
// unless the loads are all equal the busiest shard is.
func TestQuantileBoundsInvariants(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		loads := make([]uint64, len(raw))
		var total uint64
		busiest, equal := 0, true
		for i, w := range raw {
			loads[i] = uint64(w)
			total += loads[i]
			if loads[i] > loads[busiest] {
				busiest = i
			}
			equal = equal && loads[i] == loads[0]
		}
		sel := above(loads)
		if total == 0 || equal {
			return sel == nil
		}
		return len(sel) < len(loads) && aboveFairShare(loads, busiest)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
