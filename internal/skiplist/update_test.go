package skiplist

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"listset/internal/failpoint"
)

// TestVBSweepHint pins sweep's fallback. A hint only chooses where the
// search for a deleted tower's level-l predecessor starts, so a hint
// that walk cannot use — nil, deleted, past the tower, or a live tower
// whose level linkIndex parked on tail — must still leave the tower
// unlinked from every level with an empty linked mask. A live
// predecessor, the hint a remover's own fingers give, is the baseline.
func TestVBSweepHint(t *testing.T) {
	for _, mode := range vbModes {
		for _, hint := range []string{"nil", "dead", "ahead", "parked", "live"} {
			t.Run(mode.name+"/"+hint, func(t *testing.T) {
				s := mode.mk()
				// Keys [0, 256) give up every index level, which parks
				// them on tail; keys [256, 512) are linked normally.
				fps := failpoint.NewSet()
				if err := fps.Arm(failpoint.Scenario{
					Site:        failpoint.SiteSkipIndexLink,
					Action:      failpoint.ActFail,
					Probability: 1,
				}); err != nil {
					t.Fatal(err)
				}
				s.SetFailpoints(fps)
				for v := int64(0); v < 256; v++ {
					s.Insert(v)
				}
				s.SetFailpoints(nil)
				for v := int64(256); v < 512; v++ {
					s.Insert(v)
				}
				var n, dead, parked *vbNode
				for curr := s.head.next0.Load(); curr != s.tail; dead, curr = curr, curr.next0.Load() {
					if curr.val >= 300 && curr.height() >= 3 {
						n = curr
						break
					}
				}
				for curr := s.head.next0.Load(); n != nil && curr.val < 256; curr = curr.next0.Load() {
					if curr.height() >= n.height() {
						parked = curr
						break
					}
				}
				if n == nil || parked == nil {
					t.Fatal("no tower pair of the heights this test needs")
				}
				// The tower just below n dies; the pin below keeps it from
				// being recycled while it serves as a hint.
				g := s.arena.Pin()
				defer g.Unpin()
				if !s.Remove(dead.val) {
					t.Fatalf("Remove(%d) failed", dead.val)
				}
				var preds, succs, hints [maxLevel]*vbNode
				s.findFrom(g, n.val, new([maxLevel]*vbNode), s.levels, &preds, &succs)
				if succs[0] != n {
					t.Fatalf("level-0 window of %d ends at %d", n.val, succs[0].val)
				}
				for l := 1; l < n.height(); l++ {
					switch hint {
					case "dead":
						hints[l] = dead
					case "ahead":
						hints[l] = n.next0.Load()
					case "parked":
						hints[l] = parked
					case "live":
						hints[l] = preds[l]
					}
				}
				// removeFrom's level-0 steps, then the sweep under test.
				n.markDeleted()
				preds[0].next0.Store(n.next0.Load())
				n.clearLinked(0)
				s.sweep(g, n, &hints)
				if got := n.state.Load() & stLinked; got != 0 {
					t.Fatalf("linked mask %b left after sweep with %s hints", got, hint)
				}
				for l := 0; l < maxLevel; l++ {
					for curr := s.head.at(l).Load(); curr != s.tail; curr = curr.at(l).Load() {
						if curr == n {
							t.Fatalf("tower %d still linked at level %d after sweep with %s hints", n.val, l, hint)
						}
					}
				}
			})
		}
	}
}

// TestVBChurnLeavesNoDeletedTowers checks that a single-goroutine batch
// churn keeps the index tidy without any traversal's help: every remove
// sweeps its own tower off every level, so right after the churn no
// deleted tower is linked at any level. An update walks only the
// levels it writes, so its descent does not pass — and cannot
// opportunistically detach — the upper-level towers above its key;
// sweep alone keeps them clean.
func TestVBChurnLeavesNoDeletedTowers(t *testing.T) {
	const (
		n      = 1 << 14
		batch  = 64
		window = 1024
		rounds = 400
	)
	for _, mode := range vbModes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(i) * 2
			}
			s.Load(keys)
			rng := rand.New(rand.NewSource(1))
			ks := make([]int64, batch)
			for r := 0; r < rounds; r++ {
				lo := 2 * rng.Int63n(n-window)
				for j := range ks {
					ks[j] = lo + rng.Int63n(2*window)
				}
				if r%2 == 0 {
					s.RemoveAll(ks)
				} else {
					s.InsertAll(ks)
				}
			}
			for l := 0; l < s.levels; l++ {
				for curr := s.head.at(l).Load(); curr != s.tail; curr = curr.at(l).Load() {
					if curr.isDeleted() {
						t.Fatalf("deleted tower %d linked at level %d after the churn", curr.val, l)
					}
				}
			}
			checkTowerShapes(t, s)
		})
	}
}

// TestVBBatchChurnLevelInvariants runs TestVBLevelInvariants' checks
// after a concurrent batch churn, where removes sweep from their lanes'
// fingers and inserts link from level-bounded windows: the index must
// come out as sound as it does from single-key updates.
func TestVBBatchChurnLevelInvariants(t *testing.T) {
	for _, mode := range vbModes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					ks := make([]int64, 8)
					for i := 0; i < 2000; i++ {
						for j := range ks {
							ks[j] = int64(rng.Intn(32))
						}
						if rng.Intn(2) == 0 {
							s.InsertAll(ks)
						} else {
							s.RemoveAll(ks)
						}
					}
				}(int64(g))
			}
			wg.Wait()
			checkLevels(t, s)
		})
	}
}

// TestVBStormRemoveTail explains the remove-only tail of the chaos
// storm cell (skip-lock-next-at:fail:0.5, retry budget 8). A remove
// passes the skip-lock-next-at site twice per attempt — once before
// each of its two locks — and an insert once, so an attempt fails with
// probability 1-0.5² = 0.75 for a remove and 0.5 for an insert. The
// head-native ladder starts backing off (runtime.Gosched rounds) at the
// 8th restart, so 0.75⁸ ≈ 10 % of the removes that reach the lock
// phase back off, against 0.5⁸ ≈ 0.4 % of the inserts. One goroutine
// and a seeded storm keep every restart injected; each fraction must
// fall inside its binomial band (±4.5 standard deviations).
func TestVBStormRemoveTail(t *testing.T) {
	const (
		n      = 20000
		budget = 8
	)
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no storm to restart the ops with")
	}
	s := NewVB()
	fps := failpoint.NewSet()
	if err := fps.Arm(failpoint.Scenario{
		Site:        failpoint.SiteSkipLockNextAt,
		Action:      failpoint.ActFail,
		Probability: 0.5,
		Seed:        1,
	}); err != nil {
		t.Fatal(err)
	}
	s.SetFailpoints(fps)
	s.SetRetryBudget(budget)
	// Every op reaches the lock phase: the inserts' keys are absent and
	// the removes' keys present.
	for v := int64(0); v < n; v++ {
		if !s.Insert(v) {
			t.Fatalf("Insert(%d) = false on an absent key", v)
		}
	}
	ins := s.RetryStats()
	for v := int64(0); v < n; v++ {
		if !s.Remove(v) {
			t.Fatalf("Remove(%d) = false on a present key", v)
		}
	}
	rem := s.RetryStats().Sub(ins)
	for _, c := range []struct {
		op     string
		fail   float64
		backed uint64
	}{
		{"insert", 0.5, ins.EscalatedBackoff},
		{"remove", 0.75, rem.EscalatedBackoff},
	} {
		p := math.Pow(c.fail, budget)
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		t.Logf("%s: %d of %d backed off (%.2f %%), binomial mean %.1f ± %.1f", c.op, c.backed, n, 100*float64(c.backed)/n, mean, sd)
		if d := math.Abs(float64(c.backed) - mean); d > 4.5*sd {
			t.Errorf("%s: %d ops backed off, want %.1f ± %.1f", c.op, c.backed, mean, 4.5*sd)
		}
	}
}
