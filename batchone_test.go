package listset

import (
	"math/rand"
	"slices"
	"testing"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

// oneKeyRun is what one pass of the op script observed: each op's
// result, the final contents, the retry ladder's tallies and the probe
// counters.
type oneKeyRun struct {
	results []bool
	snap    []int64
	retry   obs.RetryStats
	events  obs.Snapshot
}

// runOneKeyScript applies a seeded single-goroutine script of inserts,
// removes and lookups to a fresh set in the modes o selects, with the
// validation and CAS sites of every algorithm armed to fail 30 % of
// their hits. batched routes each op through the one-key batch entry
// point (InsertAll, RemoveAll, ContainsAll) instead of the single-key
// one. The set, the failpoints and the script are rebuilt from the same
// seeds on every call, so two calls see the same hits fail.
func runOneKeyScript(t *testing.T, im Impl, o Options, batched bool) oneKeyRun {
	t.Helper()
	s, err := im.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewProbes()
	obs.Attach(s, p)
	obs.AttachRetryBudget(s, 2)
	fps := failpoint.NewSet()
	for i, site := range []failpoint.Site{
		failpoint.SiteVBLLockNextAt,
		failpoint.SiteVBLLockNextAtValue,
		failpoint.SiteLazyValidate,
		failpoint.SiteHarrisCAS,
		failpoint.SiteSkipLockNextAt,
	} {
		sc := failpoint.Scenario{Site: site, Action: failpoint.ActFail, Probability: 0.3, Seed: 100 + int64(i)}
		if err := fps.Arm(sc); err != nil {
			t.Fatal(err)
		}
	}
	failpoint.Attach(s, fps)
	b := s.(Batcher)

	rng := rand.New(rand.NewSource(9))
	var run oneKeyRun
	for range 3000 {
		k := rng.Int63n(48)
		one := []int64{k}
		var got bool
		switch op := rng.Intn(3); {
		case op == 0 && batched:
			got = b.InsertAll(one) == 1
		case op == 0:
			got = s.Insert(k)
		case op == 1 && batched:
			got = b.RemoveAll(one) == 1
		case op == 1:
			got = s.Remove(k)
		case batched:
			got = b.ContainsAll(one) == 1
		default:
			got = s.Contains(k)
		}
		run.results = append(run.results, got)
	}
	failpoint.Attach(s, nil)
	run.snap = s.Snapshot()
	run.retry = s.(obs.RetryBudgeted).RetryStats()
	run.events = p.Snapshot()
	return run
}

// TestBatchOfOneMatchesSingleKey pins that a one-key batch IS the
// single-key operation: every algorithm with a native batch surface
// runs one update protocol, which Insert and Remove start from head and
// the batch pass from its anchor. Driven by the same seeded script and
// the same seeded validation failures, the single-key and the one-key
// batch entry points must agree on every result, the final contents,
// the retry tallies and every probe counter — except
// batch_window_restart, which only batch keys count.
func TestBatchOfOneMatchesSingleKey(t *testing.T) {
	for _, im := range Implementations() {
		if _, ok := im.New().(Batcher); !ok {
			continue
		}
		modes := []Options{{}}
		if im.NewArena != nil {
			modes = append(modes, Options{Arena: true})
		}
		for _, o := range modes {
			t.Run(label(im.Name, o), func(t *testing.T) {
				single := runOneKeyScript(t, im, o, false)
				batched := runOneKeyScript(t, im, o, true)
				for i := range single.results {
					if single.results[i] != batched.results[i] {
						t.Fatalf("op %d: single-key = %v, one-key batch = %v", i, single.results[i], batched.results[i])
					}
				}
				if !slices.Equal(single.snap, batched.snap) {
					t.Errorf("Snapshot: single-key %v, one-key batch %v", single.snap, batched.snap)
				}
				if single.retry != batched.retry {
					t.Errorf("RetryStats: single-key %+v, one-key batch %+v", single.retry, batched.retry)
				}
				if failpoint.Compiled && single.retry.Restarts == 0 {
					t.Error("no restart in either run: the armed failures never fired")
				}
				if n := single.events[obs.EvBatchWindowRestart]; n != 0 {
					t.Errorf("single-key ops counted %d batch_window_restart events, want 0", n)
				}
				single.events[obs.EvBatchWindowRestart] = batched.events[obs.EvBatchWindowRestart]
				if single.events != batched.events {
					t.Errorf("events: single-key %v, one-key batch %v", single.events.Map(), batched.events.Map())
				}
			})
		}
	}
}
