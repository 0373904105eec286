package adapt

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/shard"
	"listset/internal/skiplist"
)

// The benchmark cells' shape: a 16-shard VB skip list over [0, 20000),
// whose shards span 2048 keys each, and a hot window straddling the
// seam between shards 4 and 5.
const (
	realShards = 16
	realRange  = 20000
	realSeam   = 5 * 2048
	hotLo      = realSeam - 32
	hotWidth   = 64
)

// newRealSharded returns the benchmark cells' façade and its shards in
// key order, so tests can read each shard's own ladder tallies.
func newRealSharded(t *testing.T, shards int) (*shard.Sharded, []*skiplist.VB) {
	t.Helper()
	var vbs []*skiplist.VB
	s := shard.NewRange(shards, 0, realRange, func() shard.Set {
		vb := skiplist.NewVB()
		vbs = append(vbs, vb)
		return vb
	})
	if shards == realShards {
		if b := s.Boundaries(); b[5] != realSeam {
			t.Fatalf("Boundaries() = %v, want shard 5 to start at %d", b, realSeam)
		}
	}
	return s, vbs
}

// window returns the keys [lo, lo+width).
func window(lo, width int64) []int64 {
	ks := make([]int64, width)
	for i := range ks {
		ks[i] = lo + int64(i)
	}
	return ks
}

// restarted returns the indexes of the shards whose ladder saw a
// restart.
func restarted(vbs []*skiplist.VB) []int {
	var out []int
	for i, vb := range vbs {
		if vb.RetryStats().Restarts > 0 {
			out = append(out, i)
		}
	}
	return out
}

// The TestQuantileBounds* names are historical: they once checked how
// the controller picked hot shards from a load histogram. They now
// check where the static ladder's work lands on a real sharded index.

// TestQuantileBoundsSkew: a storm confined to the seam window restarts
// ops on exactly the two shards that own it, while traffic over the
// whole range keeps every other shard's ladder idle.
func TestQuantileBoundsSkew(t *testing.T) {
	s, vbs := newRealSharded(t, realShards)
	s.SetRetryBudget(2)
	storm(t, s, failpoint.SiteSkipLockNextAt, 0.5, 1, window(hotLo, hotWidth)...)
	rng := rand.New(rand.NewSource(1))
	oracle := map[int64]bool{}
	churn(t, s, oracle, rng, hotLo, hotWidth, 2000)
	churn(t, s, oracle, rng, 0, realRange, 4000)
	if got := restarted(vbs); !slices.Equal(got, []int{4, 5}) {
		t.Fatalf("shards %v restarted, want [4 5]", got)
	}
}

// TestQuantileBoundsUniformIsNoop: fault-free sequential traffic over
// the whole range restarts nothing on any shard.
func TestQuantileBoundsUniformIsNoop(t *testing.T) {
	s, vbs := newRealSharded(t, realShards)
	s.SetRetryBudget(2)
	churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(2)), -10, realRange+20, 8000)
	if got := restarted(vbs); got != nil {
		t.Fatalf("shards %v restarted without faults", got)
	}
	if st := s.RetryStats(); !st.Zero() {
		t.Fatalf("façade RetryStats = %+v, want zero", st)
	}
}

// TestQuantileBoundsDegenerate: budget 0 through the façade is the
// paper's unbounded retry (restarts, no escalation), and a one-shard
// façade reports exactly its one shard's ladder.
func TestQuantileBoundsDegenerate(t *testing.T) {
	s, vbs := newRealSharded(t, 1)
	if len(vbs) != 1 {
		t.Fatalf("one-shard façade built %d shards", len(vbs))
	}
	s.SetRetryBudget(0)
	storm(t, s, failpoint.SiteSkipLockNextAt, 0.6, 3)
	churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(3)), 0, 128, 2000)
	st := s.RetryStats()
	if st.Restarts == 0 || st.EscalatedHead != 0 || st.EscalatedBackoff != 0 {
		t.Fatalf("budget 0 under a storm: %+v, want restarts and no escalation", st)
	}
	if st != vbs[0].RetryStats() {
		t.Fatalf("façade %+v != its only shard %+v", st, vbs[0].RetryStats())
	}
}

// TestQuantileBoundsInvariants: for storms on arbitrary windows, the
// façade's tallies are the field-wise sum of its shards' (the max for
// MaxRestarts), and the storm's restarts stay inside the shards its
// window touches.
func TestQuantileBoundsInvariants(t *testing.T) {
	prop := func(lo uint16, width uint8, seed int64) bool {
		l, w := int64(lo)%realRange, 1+int64(width)%200
		if l+w > realRange {
			l = realRange - w
		}
		s, vbs := newRealSharded(t, realShards)
		s.SetRetryBudget(1)
		storm(t, s, failpoint.SiteSkipLockNextAt, 0.5, seed, window(l, w)...)
		churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(seed)), l, w, 400)
		var sum obs.RetryStats
		for _, vb := range vbs {
			sum = sum.Add(vb.RetryStats())
		}
		if sum != s.RetryStats() {
			t.Logf("window [%d, %d): shard sum %+v != façade %+v", l, l+w, sum, s.RetryStats())
			return false
		}
		b := s.Boundaries()
		first := sort.Search(realShards, func(i int) bool { return b[i] > l }) - 1
		last := sort.Search(realShards, func(i int) bool { return b[i] > l+w-1 }) - 1
		for _, i := range restarted(vbs) {
			if i < first || i > last {
				t.Logf("window [%d, %d) in shards %d..%d restarted shard %d", l, l+w, first, last, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileThenRealRebalance: on the real façade under a seam storm,
// the ladder's restart tally and the probes' skip_restart_l0 count are
// the same number, and the injected failures mirrored into the valfail
// counters account for every restart the storm caused.
func TestQuantileThenRealRebalance(t *testing.T) {
	s, _ := newRealSharded(t, realShards)
	p := obs.NewProbes()
	s.SetProbes(p)
	s.SetRetryBudget(2)
	storm(t, s, failpoint.SiteSkipLockNextAt, 0.5, 4, window(hotLo, hotWidth)...)
	churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(4)), hotLo, hotWidth, 3000)
	st, ev := s.RetryStats(), p.Snapshot()
	if st.Restarts == 0 || st.Restarts != ev[obs.EvSkipRestartL0] {
		t.Fatalf("ladder restarts %d, skip_restart_l0 %d: want equal and positive", st.Restarts, ev[obs.EvSkipRestartL0])
	}
	valfail := ev[obs.EvValFailSucc] + ev[obs.EvValFailValue] + ev[obs.EvValFailDeleted]
	if valfail != st.Restarts {
		t.Fatalf("valfail events %d, restarts %d: a sequential storm's restarts are all injected failures", valfail, st.Restarts)
	}
}

// TestControllerRebalancesRealSharded runs the whole static stack on the
// real façade: four workers churn disjoint keys of the seam window
// under a 50 % level-0 storm at budget 2. Every worker must finish
// within a watchdog-style deadline, the partition never moves, the
// ladder escalates, and the contents equal the union of the workers'
// oracles.
func TestControllerRebalancesRealSharded(t *testing.T) {
	s, _ := newRealSharded(t, realShards)
	s.SetRetryBudget(2)
	storm(t, s, failpoint.SiteSkipLockNextAt, 0.5, 5)
	before := s.Boundaries()

	const workers = 4
	oracles := make([]map[int64]bool, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		oracles[w] = map[int64]bool{}
		wg.Add(1)
		go func(w int, oracle map[int64]bool) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				// Worker w owns the window keys ≡ w (mod workers).
				k := hotLo + int64(rng.Intn(hotWidth/workers)*workers+w)
				switch rng.Intn(3) {
				case 0:
					if got := s.Insert(k); got == oracle[k] {
						t.Errorf("worker %d: Insert(%d) = %v", w, k, got)
						return
					}
					oracle[k] = true
				case 1:
					if got := s.Remove(k); got != oracle[k] {
						t.Errorf("worker %d: Remove(%d) = %v", w, k, got)
						return
					}
					delete(oracle, k)
				default:
					if got := s.Contains(k); got != oracle[k] {
						t.Errorf("worker %d: Contains(%d) = %v", w, k, got)
						return
					}
				}
			}
		}(w, oracles[w])
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers made no progress for 30s under the storm")
	}

	if st := s.RetryStats(); st.EscalatedBackoff == 0 {
		t.Fatalf("RetryStats = %+v, want backoff escalations", st)
	}
	if after := s.Boundaries(); !slices.Equal(after, before) {
		t.Fatalf("Boundaries() moved: %v → %v", before, after)
	}
	var want []int64
	for _, o := range oracles {
		for k := range o {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if got := s.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("Snapshot = %v, want the %d oracle keys %v", got, len(want), want)
	}
}
