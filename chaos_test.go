package listset

import (
	"math/rand"
	"sync"
	"testing"

	"listset/internal/failpoint"
	"listset/internal/lincheck"
	"listset/internal/obs"
	"listset/internal/trylock"
)

// TestChaosConformance is the chaos acceptance gate: every thread-safe
// algorithm in every mode, run under each shipped chaos scenario with the
// linearizability checker on. Injected failures may only slow an
// operation down — forcing the restart, helping and escalation paths
// the paper's figures argue about — never change what it returns, so
// any corruption the faults provoke surfaces as a non-linearizable
// history.
func TestChaosConformance(t *testing.T) {
	for _, sc := range failpoint.Shipped(99) {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			forEachConcurrentMode(t, 0, 12, func(t *testing.T, im Impl) {
				runChaosTrial(t, im, sc)
			})
		})
	}
}

func runChaosTrial(t *testing.T, im Impl, sc failpoint.Scenario) {
	t.Helper()
	s := im.New()
	fps := failpoint.NewSet()
	attached := failpoint.Attach(s, fps)
	if sc.Site == failpoint.SiteTryLockAcquire {
		// The try-lock site is process-wide (the one-word SpinLock has no
		// room for a per-instance pointer), so it reaches every lock-based
		// implementation regardless of Injectable support. Tests sharing
		// it must not run in parallel.
		trylock.SetChaos(fps)
		defer trylock.SetChaos(nil)
		attached = true
	}
	if !attached {
		t.Skip("implementation carries no failpoints")
	}
	// A bounded retry budget keeps escalation in play under the forced
	// failures (and is itself under test: escalating to head restarts
	// must not change results).
	obs.AttachRetryBudget(s, 4)

	const keyRange = 12
	initial := map[int64]bool{}
	for k := int64(0); k < keyRange; k += 2 {
		s.Insert(k)
		initial[k] = true
	}
	if err := fps.Arm(sc); err != nil {
		t.Fatal(err)
	}
	defer fps.DisarmAll()

	ops := 400
	if testing.Short() {
		ops = 150
	}
	rec := lincheck.NewRecorder()
	const goroutines = 4
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		sess := rec.NewSession(s)
		wg.Add(1)
		go func(seed int64, sess *lincheck.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < ops; j++ {
				k := int64(rng.Intn(keyRange))
				switch rng.Intn(4) {
				case 0:
					sess.Insert(k)
				case 1:
					sess.Remove(k)
				default:
					sess.Contains(k)
				}
			}
		}(int64(i)+5000, sess)
	}
	wg.Wait()
	if err := lincheck.Check(rec.History(), initial); err != nil {
		t.Fatalf("scenario %s: %v", sc, err)
	}
}

// TestChaosShardSeamFaults aims forced validation failures exactly at
// the shard seams: a 16-shard VBL façade whose fail scenario is
// key-filtered to the partition's boundary keys, with every worker's
// keys drawn from the boundaries ±1. A routing bug at the seams — a
// key escalated to the wrong shard after a forced restart, say — would
// surface as a non-linearizable history or a broken snapshot order.
func TestChaosShardSeamFaults(t *testing.T) {
	const shards = 16
	s := NewVBLShardedRange(shards, 0, 64)
	b, ok := s.(interface{ Boundaries() []int64 })
	if !ok {
		t.Fatal("sharded façade does not expose Boundaries")
	}
	boundaries := b.Boundaries()
	if len(boundaries) != shards {
		t.Fatalf("Boundaries() returned %d bounds, want %d", len(boundaries), shards)
	}

	fps := failpoint.NewSet()
	if !failpoint.Attach(s, fps) {
		t.Fatal("sharded façade is not Injectable")
	}
	obs.AttachRetryBudget(s, 4)
	if err := fps.ArmAll([]failpoint.Scenario{
		{Site: failpoint.SiteVBLLockNextAt, Action: failpoint.ActFail, Probability: 0.5, Keys: boundaries, Seed: 7},
		{Site: failpoint.SiteVBLLockNextAtValue, Action: failpoint.ActFail, Probability: 0.5, Keys: boundaries, Seed: 8},
		{Site: failpoint.SiteShardRoute, Action: failpoint.ActYield, Probability: 0.2, Seed: 9},
	}); err != nil {
		t.Fatal(err)
	}
	defer fps.DisarmAll()

	// Candidate keys hug every boundary from both sides.
	var candidates []int64
	for _, bd := range boundaries {
		candidates = append(candidates, bd-1, bd, bd+1)
	}
	initial := map[int64]bool{}
	for i, k := range candidates {
		if i%2 == 0 && k >= 0 {
			s.Insert(k)
			initial[k] = true
		}
	}

	ops := 500
	if testing.Short() {
		ops = 150
	}
	rec := lincheck.NewRecorder()
	const goroutines = 4
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		sess := rec.NewSession(s)
		wg.Add(1)
		go func(seed int64, sess *lincheck.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < ops; j++ {
				k := candidates[rng.Intn(len(candidates))]
				switch rng.Intn(4) {
				case 0:
					sess.Insert(k)
				case 1:
					sess.Remove(k)
				default:
					sess.Contains(k)
				}
			}
		}(int64(i)+6000, sess)
	}
	wg.Wait()
	if err := lincheck.Check(rec.History(), initial); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("Snapshot not strictly ascending across seams under faults: %v", snap)
		}
	}
}
