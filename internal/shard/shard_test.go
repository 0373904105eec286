package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"listset/internal/obs"
)

// sliceSet is a minimal sorted-slice Set used to test the façade
// without importing the root package (which imports this one). It is
// single-threaded; the façade's concurrent behaviour is covered by the
// root package's conformance, stress and linearizability suites.
type sliceSet struct {
	keys []int64
}

func newSliceSet() Set { return &sliceSet{} }

func (s *sliceSet) find(v int64) int {
	return sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= v })
}

func (s *sliceSet) Insert(v int64) bool {
	i := s.find(v)
	if i < len(s.keys) && s.keys[i] == v {
		return false
	}
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = v
	return true
}

func (s *sliceSet) Remove(v int64) bool {
	i := s.find(v)
	if i == len(s.keys) || s.keys[i] != v {
		return false
	}
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
	return true
}

func (s *sliceSet) Contains(v int64) bool {
	i := s.find(v)
	return i < len(s.keys) && s.keys[i] == v
}

func (s *sliceSet) Len() int { return len(s.keys) }

func (s *sliceSet) Snapshot() []int64 {
	out := make([]int64, len(s.keys))
	copy(out, s.keys)
	return out
}

func TestShardCountRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{16, 16}, {17, 32}, {MaxShards, MaxShards}, {MaxShards + 1, MaxShards},
	}
	for _, c := range cases {
		if got := New(c.in, newSliceSet).Shards(); got != c.want {
			t.Errorf("New(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRoutingTotalAndMonotone is the shard-routing invariant property
// test: every int64 key maps to exactly one in-range shard, and the
// mapping is monotone (order-preserving).
func TestRoutingTotalAndMonotone(t *testing.T) {
	partitions := []*Sharded{
		New(16, newSliceSet),
		NewRange(4, 0, 32, newSliceSet),
		NewRange(8, -1000, 1000, newSliceSet),
		NewRange(64, 0, 20000, newSliceSet),
		NewRange(2, math.MinInt64, math.MaxInt64, newSliceSet),
		NewRange(1, 0, 1, newSliceSet),
	}
	for _, s := range partitions {
		s := s
		// Totality + range: every key owned by exactly one shard index
		// in [0, S). (shardOf is a pure function, so "exactly one"
		// reduces to determinism plus range membership.)
		total := func(k int64) bool {
			i := s.shardOf(k)
			return i >= 0 && i < s.Shards() && i == s.shardOf(k)
		}
		if err := quick.Check(total, nil); err != nil {
			t.Errorf("totality (S=%d lo=%d): %v", s.Shards(), s.lo, err)
		}
		// Monotonicity: k1 <= k2 implies shard(k1) <= shard(k2).
		mono := func(k1, k2 int64) bool {
			if k1 > k2 {
				k1, k2 = k2, k1
			}
			return s.shardOf(k1) <= s.shardOf(k2)
		}
		if err := quick.Check(mono, nil); err != nil {
			t.Errorf("monotonicity (S=%d lo=%d): %v", s.Shards(), s.lo, err)
		}
	}
}

// TestBoundariesMonotone checks the published shard boundaries are
// non-decreasing and consistent with routing: a boundary key routes to
// its shard, and its predecessor key routes strictly below.
func TestBoundariesMonotone(t *testing.T) {
	for _, s := range []*Sharded{
		New(16, newSliceSet),
		NewRange(4, 0, 32, newSliceSet),
		NewRange(8, -512, 512, newSliceSet),
		NewRange(16, math.MinInt64+1, math.MaxInt64-1, newSliceSet),
		NewRange(16, math.MaxInt64-20, math.MaxInt64, newSliceSet),
	} {
		bs := s.Boundaries()
		if len(bs) != s.Shards() {
			t.Fatalf("Boundaries() has %d entries, want %d", len(bs), s.Shards())
		}
		for i := 1; i < len(bs); i++ {
			if bs[i-1] > bs[i] {
				t.Fatalf("boundaries not monotone: %v", bs)
			}
			if bs[i] == math.MaxInt64 {
				continue // saturated tail: shard unused by the focus range
			}
			if got := s.shardOf(bs[i]); got != i {
				t.Errorf("shardOf(boundary %d = %d) = %d", i, bs[i], got)
			}
			if got := s.shardOf(bs[i] - 1); got != i-1 {
				t.Errorf("shardOf(boundary %d - 1 = %d) = %d, want %d", i, bs[i]-1, got, i-1)
			}
		}
	}
}

// TestSnapshotIsSortedUnionOfShards: the façade's Snapshot equals the
// sorted union of the per-shard snapshots (property test over random
// operation sequences).
func TestSnapshotIsSortedUnionOfShards(t *testing.T) {
	prop := func(keys []int64, removeEvery uint8) bool {
		s := NewRange(8, -64, 192, newSliceSet)
		for _, k := range keys {
			s.Insert(k)
		}
		step := int(removeEvery%5) + 2
		for i, k := range keys {
			if i%step == 0 {
				s.Remove(k)
			}
		}
		var union []int64
		for i := range s.slots {
			union = append(union, s.slots[i].set.Snapshot()...)
		}
		sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
		snap := s.Snapshot()
		if len(snap) != len(union) {
			return false
		}
		for i := range snap {
			if snap[i] != union[i] {
				return false
			}
		}
		// The concatenated snapshot must itself be strictly ascending.
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				return false
			}
		}
		return len(snap) == s.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOracleAcrossBoundaries drives a tightly focused façade against a
// map oracle with keys clustered on the shard boundaries.
func TestOracleAcrossBoundaries(t *testing.T) {
	s := NewRange(4, 0, 32, newSliceSet) // spans of 8: boundaries 0, 8, 16, 24
	oracle := map[int64]bool{}
	rng := rand.New(rand.NewSource(7))
	candidates := []int64{-9, -1, 0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 100}
	for i := 0; i < 20000; i++ {
		k := candidates[rng.Intn(len(candidates))]
		switch rng.Intn(3) {
		case 0:
			if got, want := s.Insert(k), !oracle[k]; got != want {
				t.Fatalf("step %d: Insert(%d) = %v, want %v", i, k, got, want)
			}
			oracle[k] = true
		case 1:
			if got, want := s.Remove(k), oracle[k]; got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", i, k, got, want)
			}
			delete(oracle, k)
		default:
			if got := s.Contains(k); got != oracle[k] {
				t.Fatalf("step %d: Contains(%d) = %v, want %v", i, k, got, oracle[k])
			}
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(oracle))
	}
}

// TestSlotLayout pins the shard-header padding: a slot occupies a
// whole number of cache lines so adjacent headers cannot false-share.
func TestSlotLayout(t *testing.T) {
	if sz := unsafe.Sizeof(slot{}); sz%cacheLine != 0 {
		t.Fatalf("slot size %d is not a multiple of the %d-byte cache line", sz, cacheLine)
	}
	s := New(4, newSliceSet)
	for i := 1; i < len(s.slots); i++ {
		a := uintptr(unsafe.Pointer(&s.slots[i-1]))
		b := uintptr(unsafe.Pointer(&s.slots[i]))
		if b-a < cacheLine {
			t.Fatalf("slots %d and %d are %d bytes apart, want >= %d", i-1, i, b-a, cacheLine)
		}
	}
}

// probeSet records SetProbes calls so the test can verify the façade
// forwards instrumentation to every shard.
type probeSet struct {
	sliceSet
	attached *obs.Probes
}

func (p *probeSet) SetProbes(pr *obs.Probes) { p.attached = pr }

func TestSetProbesForwardsToEveryShard(t *testing.T) {
	var made []*probeSet
	s := New(8, func() Set {
		p := &probeSet{}
		made = append(made, p)
		return p
	})
	pr := obs.NewProbes()
	if !obs.Attach(s, pr) {
		t.Fatal("obs.Attach did not recognize the façade as Instrumented")
	}
	if len(made) != s.Shards() {
		t.Fatalf("constructor ran %d times, want %d", len(made), s.Shards())
	}
	for i, p := range made {
		if p.attached != pr {
			t.Fatalf("shard %d did not receive the probes", i)
		}
	}
	s.SetProbes(nil)
	for i, p := range made {
		if p.attached != nil {
			t.Fatalf("shard %d still attached after detach", i)
		}
	}
}

func TestNewRangePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty range": func() { NewRange(4, 10, 10, newSliceSet) },
		"nil ctor":    func() { NewRange(4, 0, 10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
