package adapt

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"listset/internal/obs"
	"listset/internal/shard"
	"listset/internal/skiplist"
	"listset/internal/trylock"
)

// The shard façade must satisfy the controller's actuator surface
// structurally — this assertion breaks the build if either side
// drifts.
var _ shardActuator = (*shard.Sharded)(nil)

// The adapt suite's shape: a 16-shard VB skip list over [0, 20000),
// whose shards span 2048 keys each, and a hot window straddling the
// seam between shards 4 and 5.
const (
	realShards = 16
	realRange  = 20000
	realSeam   = 5 * 2048
	hotLo      = realSeam - 32
	hotWidth   = 64
)

func newRealSharded(t *testing.T) *shard.Sharded {
	t.Helper()
	s := shard.NewRange(realShards, 0, realRange, func() shard.Set { return skiplist.NewVB() })
	if b := s.Boundaries(); b[5] != realSeam {
		t.Fatalf("Boundaries() = %v, want shard 5 to start at %d", b, realSeam)
	}
	return s
}

// TestQuantileThenRealRebalance feeds the real façade's load histogram
// through the controller: a seam hotspot's interval deltas land on the
// two flanking shards and select exactly them, and a later uniform
// interval's deltas are exactly that interval's routed operations per
// shard (the counters are monotone for the set's life).
func TestQuantileThenRealRebalance(t *testing.T) {
	s := newRealSharded(t)
	var ops atomic.Uint64
	c := New(s, obs.NewProbes(), ops.Load, Config{})
	for k := int64(0); k < realRange; k += 4 {
		s.Insert(k)
	}
	c.loadDeltas() // absorb the population

	for i := 0; i < 4096; i++ {
		s.Contains(hotLo + int64(i%hotWidth))
	}
	d := c.loadDeltas()
	var sum uint64
	for _, n := range d {
		sum += n
	}
	if d[4] != 2048 || d[5] != 2048 || sum != 4096 {
		t.Fatalf("seam interval deltas = %v, want 2048 on each of shards 4 and 5 and none elsewhere", d)
	}
	if got := above(d); !slices.Equal(got, []int{4, 5}) {
		t.Fatalf("seam interval selects shards %v, want [4 5]", got)
	}

	want := make([]uint64, realShards)
	bounds := s.Boundaries()
	for k := int64(-10); k < realRange+10; k++ {
		s.Contains(k)
		i := sort.Search(realShards, func(i int) bool { return bounds[i] > k }) - 1
		if i < 0 {
			i = 0
		}
		want[i]++
	}
	d = c.loadDeltas()
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("uniform interval deltas = %v, want %v", d, want)
		}
	}
}

// TestControllerRebalancesRealSharded runs the whole loop against the
// real façade: contended seam traffic widens exactly the two flanking
// shards' ceilings, quiet traffic decays them back, the partition never
// moves, and the set's contents stay equal to a map oracle.
func TestControllerRebalancesRealSharded(t *testing.T) {
	s := newRealSharded(t)
	p := obs.NewProbes()
	var ops atomic.Uint64
	c := New(s, p, ops.Load, Config{})
	oracle := map[int64]bool{}
	for k := int64(0); k < realRange; k += 4 {
		s.Insert(k)
		oracle[k] = true
	}
	before := s.Boundaries()

	const hotTicks = 6
	for tick := 0; tick < hotTicks; tick++ {
		for i := 0; i < 4000; i++ {
			k := hotLo + int64((i*7+tick)%hotWidth)
			switch i % 3 {
			case 0:
				if got := s.Insert(k); got == oracle[k] {
					t.Fatalf("Insert(%d) = %v with the key present = %v", k, got, oracle[k])
				}
				oracle[k] = true
			case 1:
				if got := s.Remove(k); got != oracle[k] {
					t.Fatalf("Remove(%d) = %v, want %v", k, got, oracle[k])
				}
				delete(oracle, k)
			default:
				if got := s.Contains(k); got != oracle[k] {
					t.Fatalf("Contains(%d) = %v, want %v", k, got, oracle[k])
				}
			}
		}
		ops.Add(4000)
		for i := 0; i < 1200; i++ { // contention 0.30: above High, below shedding
			p.Inc(obs.EvTryLockContended, hotLo)
		}
		c.tick()
	}
	st := c.snapshotStats()
	if st.Ticks != hotTicks || st.BackoffWiden != 2*hotTicks || st.Sheds != 0 {
		t.Fatalf("stats = %+v, want %d ticks, %d widens, no shed", st, hotTicks, 2*hotTicks)
	}
	for i, ceil := range st.FinalCeilings {
		hot := i == 4 || i == 5
		if hot && ceil != trylock.DefaultMaxSpin+hotTicks*c.cfg.CeilingStep || !hot && ceil != trylock.DefaultMaxSpin {
			t.Fatalf("ceilings = %v, want only shards 4 and 5 widened", st.FinalCeilings)
		}
	}

	for tick := 0; tick < 20; tick++ {
		for k := int64(0); k < realRange; k += 5 {
			if got := s.Contains(k); got != oracle[k] {
				t.Fatalf("Contains(%d) = %v, want %v", k, got, oracle[k])
			}
		}
		ops.Add(realRange / 5)
		c.tick()
	}
	for i, ceil := range c.snapshotStats().FinalCeilings {
		if ceil != trylock.DefaultMaxSpin {
			t.Fatalf("shard %d ceiling = %d after quiet intervals, want decayed to %d", i, ceil, trylock.DefaultMaxSpin)
		}
	}

	after := s.Boundaries()
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("Boundaries() moved: %v → %v", before, after)
		}
	}
	var want []int64
	for k := range oracle {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if s.Len() != len(want) || !slices.Equal(s.Snapshot(), want) {
		t.Fatalf("Len = %d and Snapshot = %v, want the %d oracle keys", s.Len(), s.Snapshot(), len(want))
	}
}
