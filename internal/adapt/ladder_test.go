// Package adapt holds tests only. It once held an adaptive contention
// controller that retuned per-shard try-lock backoff and the retry
// budget from the obs counters; a paired trial found it never paid on
// the sharded skip index and it was deleted (DESIGN.md §14). The tests
// kept their names and now drive what took its place, the static
// escalation ladder (obs.Escalator behind SetRetryBudget) and the
// harness watchdog, on real sets.
package adapt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listset/internal/coarse"
	"listset/internal/core"
	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/skiplist"
)

// pointSet is the point-operation surface churn drives.
type pointSet interface {
	Insert(v int64) bool
	Remove(v int64) bool
	Contains(v int64) bool
}

// storm arms an injected validation-failure storm on set: site fails
// with probability prob (reproducibly, from seed), only on keys when
// given. It returns the armed failpoint set.
func storm(t *testing.T, set any, site failpoint.Site, prob float64, seed int64, keys ...int64) *failpoint.Set {
	t.Helper()
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no storm to drive the ladder with")
	}
	fps := failpoint.NewSet()
	if !failpoint.Attach(set, fps) {
		t.Fatalf("%T takes no failpoints", set)
	}
	if err := fps.Arm(failpoint.Scenario{Site: site, Action: failpoint.ActFail, Probability: prob, Seed: seed, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	return fps
}

// churn runs n sequential random updates and reads on keys drawn from
// [lo, lo+width) against a map oracle, failing on the first
// disagreement. The ladder may only change how an op retries, never
// what it returns.
func churn(t *testing.T, s pointSet, oracle map[int64]bool, rng *rand.Rand, lo, width int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := lo + rng.Int63n(width)
		switch rng.Intn(3) {
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
}

// TestAIMDStationaryConvergence: for any budget K and any stationary
// storm on a real VBL, the static ladder keeps its invariants: results
// match the oracle, and the tallies nest (backoff ⊆ head ⊆ restarted
// ops), with head escalation exactly when some op reached K restarts
// and backoff only when one reached 2K.
func TestAIMDStationaryConvergence(t *testing.T) {
	prop := func(budget, pct uint8, seed int64) bool {
		k := 1 + int(budget%8)
		prob := 0.2 + float64(pct%50)/100
		s := core.New()
		s.SetRetryBudget(k)
		storm(t, s, failpoint.SiteVBLLockNextAt, prob, seed)
		churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(seed)), 0, 32, 300)
		st := s.RetryStats()
		ok := st.EscalatedBackoff <= st.EscalatedHead && st.EscalatedHead <= st.Ops && st.Ops <= st.Restarts &&
			(st.EscalatedHead > 0) == (st.MaxRestarts >= uint64(k)) &&
			(st.EscalatedBackoff == 0 || st.MaxRestarts >= uint64(2*k))
		if !ok {
			t.Logf("K=%d p=%.2f: %+v", k, prob, st)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAIMDDirection: under one seeded storm, a tighter budget escalates
// at least as many ops as a looser one, and budget 0 (the paper's
// unbounded retry) escalates none. Sequential ops hit the failpoint in
// the same order whatever the budget, so the comparison is exact.
func TestAIMDDirection(t *testing.T) {
	run := func(k int) obs.RetryStats {
		s := core.New()
		s.SetRetryBudget(k)
		storm(t, s, failpoint.SiteVBLLockNextAt, 0.6, 7)
		churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(7)), 0, 64, 2000)
		return s.RetryStats()
	}
	prev := run(0)
	if prev.EscalatedHead != 0 || prev.EscalatedBackoff != 0 || prev.Restarts == 0 {
		t.Fatalf("budget 0: %+v, want restarts and no escalation", prev)
	}
	for _, k := range []int{8, 4, 2, 1} {
		st := run(k)
		if st.Restarts != prev.Restarts {
			t.Fatalf("budget %d saw %d restarts, budget-0 run %d: the storm is not the same", k, st.Restarts, prev.Restarts)
		}
		if st.EscalatedHead < prev.EscalatedHead || st.EscalatedBackoff < prev.EscalatedBackoff {
			t.Fatalf("budget %d escalated less than a looser budget: %+v after %+v", k, st, prev)
		}
		prev = st
	}
	if prev.EscalatedHead == 0 || prev.EscalatedBackoff == 0 {
		t.Fatalf("budget 1 under a 60%% storm: %+v, want both stages reached", prev)
	}
}

// TestBudgetStormAndRecovery: a storm on a real VB skip list drives
// ops up the ladder; once the storm is disarmed, later ops on the same
// set restart not at all. The ladder's state is per operation, so
// nothing the storm did outlives it.
func TestBudgetStormAndRecovery(t *testing.T) {
	s := skiplist.NewVB()
	s.SetRetryBudget(2)
	fps := storm(t, s, failpoint.SiteSkipLockNextAt, 0.5, 3)
	oracle := map[int64]bool{}
	rng := rand.New(rand.NewSource(3))
	churn(t, s, oracle, rng, 0, 256, 3000)
	during := s.RetryStats()
	if during.EscalatedBackoff == 0 {
		t.Fatalf("storm: %+v, want backoff escalations at budget 2", during)
	}
	fps.DisarmAll()
	churn(t, s, oracle, rng, 0, 256, 3000)
	if after := s.RetryStats().Sub(during); after.Restarts != 0 || after.EscalatedBackoff != 0 {
		t.Fatalf("after the storm: %+v, want no restart", after)
	}
}

// TestWidenCountsOnlyCeilingChanges: each op counts each escalation
// stage once, however many restarts it spends there. The probe events
// equal the per-op tallies, and both are far below the restart count.
func TestWidenCountsOnlyCeilingChanges(t *testing.T) {
	s := core.New()
	p := obs.NewProbes()
	s.SetProbes(p)
	s.SetRetryBudget(1)
	storm(t, s, failpoint.SiteVBLLockNextAt, 0.7, 11)
	churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(11)), 0, 64, 2000)
	st, ev := s.RetryStats(), p.Snapshot()
	if obs.Compiled && (ev[obs.EvRetryEscalateHead] != st.EscalatedHead || ev[obs.EvRetryEscalateBackoff] != st.EscalatedBackoff) {
		t.Fatalf("events head/backoff = %d/%d, tallies %+v", ev[obs.EvRetryEscalateHead], ev[obs.EvRetryEscalateBackoff], st)
	}
	if st.EscalatedHead == 0 || st.Restarts <= 2*st.EscalatedHead {
		t.Fatalf("tallies %+v: want escalations, each op past K spending several restarts", st)
	}
}

// TestPlainSetGetsSinglePolicy: obs.AttachRetryBudget reaches a plain
// set's ladder directly and reports false for a set without one (the
// coarse-grained baseline never retries).
func TestPlainSetGetsSinglePolicy(t *testing.T) {
	s := skiplist.NewVB()
	if !obs.AttachRetryBudget(s, 1) {
		t.Fatal("AttachRetryBudget refused a VB skip list")
	}
	storm(t, s, failpoint.SiteSkipLockNextAt, 0.5, 5)
	churn(t, s, map[int64]bool{}, rand.New(rand.NewSource(5)), 0, 64, 1000)
	if st := s.RetryStats(); st.EscalatedBackoff == 0 {
		t.Fatalf("budget 1 under a storm: %+v, want backoff escalations", st)
	}
	if obs.AttachRetryBudget(coarse.New(), 1) {
		t.Fatal("AttachRetryBudget claimed a set with no ladder")
	}
}
