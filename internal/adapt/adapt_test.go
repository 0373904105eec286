package adapt

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"listset/internal/obs"
	"listset/internal/trylock"
)

// fakeShard is a minimal shardActuator + RetryBudgeted the
// state-machine tests drive: the test feeds per-interval loads and
// reads back what the controller actuated.
type fakeShard struct {
	cum       []uint64 // cumulative per-shard loads (test appends)
	backoffs  []*trylock.Backoff
	budget    int
	loadStats bool
}

func newFakeShard(shards int) *fakeShard { return &fakeShard{cum: make([]uint64, shards)} }

func (f *fakeShard) Shards() int                            { return len(f.cum) }
func (f *fakeShard) EnableLoadStats()                       { f.loadStats = true }
func (f *fakeShard) SetShardBackoffs(bs []*trylock.Backoff) { f.backoffs = bs }
func (f *fakeShard) SetRetryBudget(k int)                   { f.budget = k }
func (f *fakeShard) RetryStats() obs.RetryStats             { return obs.RetryStats{} }

func (f *fakeShard) LoadCounts() []uint64 { return append([]uint64(nil), f.cum...) }

// harness bundles a controller with hand-cranked signal sources.
type harness struct {
	c      *Controller
	p      *obs.Probes
	ops    atomic.Uint64
	f      *fakeShard
	budget *int
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{p: obs.NewProbes(), f: newFakeShard(4)}
	h.c = New(h.f, h.p, h.ops.Load, cfg)
	if h.f.budget != h.c.cfg.BudgetBase {
		t.Fatalf("New did not pre-position the budget: %d, want %d", h.f.budget, h.c.cfg.BudgetBase)
	}
	if !h.f.loadStats {
		t.Fatal("New did not enable load stats")
	}
	if len(h.f.backoffs) != 4 {
		t.Fatalf("New attached %d backoff policies, want 4", len(h.f.backoffs))
	}
	return h
}

// interval feeds one control interval's worth of signal and ticks:
// nOps operations, contention·nOps contended locks, valfail·nOps
// failed validations, and per-shard load weights.
func (h *harness) interval(contention, valfail float64, weights []uint64) {
	const nOps = 10000
	h.ops.Add(nOps)
	for i := 0; i < int(contention*nOps); i++ {
		h.p.Inc(obs.EvTryLockContended, int64(i))
	}
	for i := 0; i < int(valfail*nOps); i++ {
		h.p.Inc(obs.EvValFailSucc, int64(i))
	}
	for i, w := range weights {
		h.f.cum[i] += w
	}
	h.c.tick()
}

var uniform = []uint64{100, 100, 100, 100}

// TestAIMDStationaryConvergence is the stability property the ISSUE
// demands: on a stationary workload — any fixed contention ratio, any
// fixed load split — the AIMD loop must converge, not oscillate.
// After a transient the spin ceilings have to sit still.
func TestAIMDStationaryConvergence(t *testing.T) {
	prop := func(ratioPct uint8, hotShard uint8, skewed bool) bool {
		ratio := float64(ratioPct%100) / 100
		h := newHarness(t, Config{})
		weights := append([]uint64(nil), uniform...)
		if skewed {
			weights[int(hotShard)%4] = 5000
		}
		// Transient: let the loop move as far as it wants.
		for i := 0; i < 80; i++ {
			h.interval(ratio, 0.0, weights)
		}
		// Stationary regime: every ceiling must now be a fixed point.
		var frozen [4]int32
		for i, b := range h.f.backoffs {
			frozen[i] = b.Ceiling()
		}
		for i := 0; i < 40; i++ {
			h.interval(ratio, 0.0, weights)
			for j, b := range h.f.backoffs {
				if b.Ceiling() != frozen[j] {
					t.Logf("ratio %.2f: shard %d ceiling moved %d → %d after transient", ratio, j, frozen[j], b.Ceiling())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAIMDDirection pins the loop's sign: high contention widens the
// hot shard's ceiling (and only the hot shard's), low contention
// decays it back to the default.
func TestAIMDDirection(t *testing.T) {
	h := newHarness(t, Config{})
	hot := []uint64{5000, 100, 100, 100}
	for i := 0; i < 10; i++ {
		h.interval(0.30, 0.0, hot)
	}
	if c := h.f.backoffs[0].Ceiling(); c <= trylock.DefaultMaxSpin {
		t.Fatalf("hot shard ceiling = %d after sustained contention, want > default %d", c, trylock.DefaultMaxSpin)
	}
	if c := h.f.backoffs[2].Ceiling(); c != trylock.DefaultMaxSpin {
		t.Fatalf("cold shard ceiling = %d, want untouched default %d", c, trylock.DefaultMaxSpin)
	}
	for i := 0; i < 60; i++ {
		h.interval(0.005, 0.0, uniform)
	}
	if c := h.f.backoffs[0].Ceiling(); c != trylock.DefaultMaxSpin {
		t.Fatalf("hot shard ceiling = %d after sustained quiet, want decayed to %d", c, trylock.DefaultMaxSpin)
	}
	st := h.c.snapshotStats()
	if st.BackoffWiden == 0 || st.BackoffDecay == 0 {
		t.Fatalf("stats = %+v, want both widen and decay counted", st)
	}
	// Decisions must be auditable: the widen/decay events are in the
	// probes the flight recorder taps.
	snap := h.p.Snapshot()
	if snap[obs.EvAdaptBackoffWiden] == 0 || snap[obs.EvAdaptBackoffDecay] == 0 {
		t.Fatal("adapt backoff events not emitted to probes")
	}
}

// TestBudgetStormAndRecovery: a validation-failure storm must walk the
// retry budget down to the floor; calm must walk it back to base.
func TestBudgetStormAndRecovery(t *testing.T) {
	h := newHarness(t, Config{BudgetBase: 32, BudgetMin: 4})
	for i := 0; i < 6; i++ {
		h.interval(0.05, 0.60, uniform)
	}
	if h.f.budget != 4 {
		t.Fatalf("budget = %d after storm, want floor 4", h.f.budget)
	}
	for i := 0; i < 6; i++ {
		h.interval(0.05, 0.0, uniform)
	}
	if h.f.budget != 32 {
		t.Fatalf("budget = %d after recovery, want base 32", h.f.budget)
	}
	snap := h.p.Snapshot()
	if snap[obs.EvAdaptBudgetTighten] == 0 || snap[obs.EvAdaptBudgetRelax] == 0 {
		t.Fatal("budget adaptation events not emitted")
	}
}

// TestSheddingTripsAndRecovers: sustained overload must pin ceilings
// and floor the budget — then restore both after the recovery streak.
func TestSheddingTripsAndRecovers(t *testing.T) {
	h := newHarness(t, Config{ShedRecover: 3})
	h.interval(0.80, 0.0, uniform)
	if h.c.shedding || h.f.budget != h.c.cfg.BudgetBase {
		t.Fatal("shed tripped after a single hot interval; needs two")
	}
	h.interval(0.80, 0.0, uniform)
	if h.f.budget != h.c.cfg.BudgetMin {
		t.Fatalf("budget = %d under shed, want floor %d", h.f.budget, h.c.cfg.BudgetMin)
	}
	for _, b := range h.f.backoffs {
		if b.Ceiling() != trylock.CeilingLimit {
			t.Fatalf("ceiling = %d under shed, want pinned at %d", b.Ceiling(), trylock.CeilingLimit)
		}
	}
	for i := 0; i < 3; i++ {
		h.interval(0.01, 0.0, uniform)
	}
	for _, b := range h.f.backoffs {
		if b.Ceiling() != trylock.DefaultMaxSpin {
			t.Fatalf("ceiling = %d after unshed, want default %d", b.Ceiling(), trylock.DefaultMaxSpin)
		}
	}
	if h.f.budget != h.c.cfg.BudgetBase {
		t.Fatalf("budget = %d after unshed, want base %d", h.f.budget, h.c.cfg.BudgetBase)
	}
	st := h.c.snapshotStats()
	if st.Sheds != 1 || st.Unsheds != 1 {
		t.Fatalf("sheds/unsheds = %d/%d, want 1/1", st.Sheds, st.Unsheds)
	}
	snap := h.p.Snapshot()
	if snap[obs.EvAdaptShed] != 1 || snap[obs.EvAdaptUnshed] != 1 {
		t.Fatal("shed/unshed events not emitted")
	}
}

// TestRebalanceTriggerAndCooldown: sustained skew is not a trigger
// for anything beyond the backoff loop. Forty skewed intervals in the
// dead band move no ceiling, and the only adapt events and stats are
// ticks; the report's adapt section carries no partition fields.
func TestRebalanceTriggerAndCooldown(t *testing.T) {
	h := newHarness(t, Config{})
	skew := []uint64{3700, 100, 100, 100}
	for i := 0; i < 40; i++ {
		h.interval(0.05, 0.0, skew)
	}
	for i, b := range h.f.backoffs {
		if b.Ceiling() != trylock.DefaultMaxSpin {
			t.Fatalf("shard %d ceiling = %d under dead-band skew, want %d", i, b.Ceiling(), trylock.DefaultMaxSpin)
		}
	}
	snap := h.p.Snapshot()
	for ev := obs.EvAdaptBackoffWiden; ev <= obs.EvAdaptUnshed; ev++ {
		if snap[ev] != 0 {
			t.Fatalf("event %s = %d under dead-band skew, want 0", ev, snap[ev])
		}
	}
	st := h.c.snapshotStats()
	if st.Ticks != 40 || st.BackoffWiden+st.BackoffDecay+st.BudgetTighten+st.BudgetRelax+st.Sheds+st.Unsheds != 0 {
		t.Fatalf("stats = %+v, want 40 ticks and no decision", st)
	}
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(js, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"ticks", "backoff_widen", "backoff_decay", "budget_tighten", "budget_relax",
		"sheds", "unsheds", "final_budget", "final_ceilings", "shedding"}
	if len(keys) != len(want) {
		t.Fatalf("adapt section keys = %v, want exactly %v", keys, want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Fatalf("adapt section lacks %q: %s", k, js)
		}
	}
}

// TestWidenCountsOnlyCeilingChanges: once a hot shard's ceiling sits at
// CeilingLimit, further hot intervals change nothing, so they must
// count no widen and emit no widen event.
func TestWidenCountsOnlyCeilingChanges(t *testing.T) {
	h := newHarness(t, Config{})
	hot := []uint64{5000, 100, 100, 100}
	changes := uint64(0)
	for i := 0; i < 60; i++ {
		before := h.f.backoffs[0].Ceiling()
		h.interval(0.30, 0.0, hot)
		if h.f.backoffs[0].Ceiling() != before {
			changes++
		}
	}
	if c := h.f.backoffs[0].Ceiling(); c != trylock.CeilingLimit {
		t.Fatalf("hot ceiling = %d after 60 hot ticks, want the limit %d", c, trylock.CeilingLimit)
	}
	st := h.c.snapshotStats()
	if st.BackoffWiden != changes {
		t.Fatalf("BackoffWiden = %d, want the %d actual ceiling changes", st.BackoffWiden, changes)
	}
	if ev := h.p.Snapshot()[obs.EvAdaptBackoffWiden]; ev != changes {
		t.Fatalf("%s events = %d, want %d", obs.EvAdaptBackoffWiden, ev, changes)
	}
}

// TestStartStop exercises the timer path end to end (everything else
// drives tick() directly).
func TestStartStop(t *testing.T) {
	h := newHarness(t, Config{Interval: time.Millisecond})
	h.c.Start()
	for i := 0; i < 50; i++ {
		h.ops.Add(100)
		time.Sleep(time.Millisecond)
	}
	st := h.c.Stop()
	if st.Ticks == 0 {
		t.Fatal("controller never ticked")
	}
	if st.FinalBudget != h.c.cfg.BudgetBase {
		t.Fatalf("FinalBudget = %d, want %d", st.FinalBudget, h.c.cfg.BudgetBase)
	}
	if len(st.FinalCeilings) != 4 {
		t.Fatalf("FinalCeilings = %v, want 4 entries", st.FinalCeilings)
	}
}

// TestPlainSetGetsSinglePolicy: a non-sharded Tunable set still gets
// the backoff actuator, as one set-wide policy.
func TestPlainSetGetsSinglePolicy(t *testing.T) {
	set := &tunableSet{}
	p := obs.NewProbes()
	var ops atomic.Uint64
	c := New(set, p, ops.Load, Config{})
	if set.b == nil {
		t.Fatal("controller did not attach a policy to a plain Tunable set")
	}
	if len(c.backoffs) != 1 {
		t.Fatalf("controller holds %d policies for a plain set, want 1", len(c.backoffs))
	}
	// High contention with no load histogram: the single policy widens.
	ops.Add(10000)
	for i := 0; i < 3000; i++ {
		p.Inc(obs.EvTryLockContended, int64(i))
	}
	c.tick()
	if set.b.Ceiling() <= trylock.DefaultMaxSpin {
		t.Fatalf("plain-set ceiling = %d, want widened past %d", set.b.Ceiling(), trylock.DefaultMaxSpin)
	}
}

type tunableSet struct{ b *trylock.Backoff }

func (s *tunableSet) SetBackoff(b *trylock.Backoff) { s.b = b }
