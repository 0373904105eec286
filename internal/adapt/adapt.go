// Package adapt is the contention-control feedback loop that closes
// the repository's observability layer onto its tuning knobs. The obs
// probes count which schedules the lists reject — contended try-lock
// acquisitions, failed validations, escalated retries — and this
// package samples those counters every control interval and drives
// two actuators in response (DESIGN.md §14):
//
//   - per-shard try-lock backoff: AIMD on each shard's spin ceiling
//     (additive widen for above-fair-share shards while the global
//     contended-acquisition ratio is high, multiplicative decay when
//     it is low), through the per-instance trylock.Backoff policies;
//   - retry budget: halve the prev→head→backoff escalation ladder's
//     budget under a validation-failure storm, double it back to the
//     configured baseline when the storm passes.
//
// The shard partition itself is static: the load histogram only
// localizes which shards' ceilings widen.
//
// On top of the loops sits overload shedding: when the contended ratio
// crosses ShedContention the controller pins ceilings at the limit and
// floors the retry budget — degrading throughput deliberately so the
// harness watchdog never has to fire — and undoes both after
// ShedRecover quiet intervals.
//
// Every decision is emitted as an obs event (EvAdapt*), so the flight
// recorder orders adaptations against the contention that caused them
// and `tracecat -dump` audits the whole control history.
//
// The controller is deliberately a single goroutine ticking a pure
// state machine: tick() reads counter deltas and writes actuator
// values, with no locks shared with the data path beyond the atomics
// the actuators already are. Stability comes from hysteresis — the
// widen and decay thresholds are separated, so a stationary workload
// settles into the dead band instead of oscillating (the property
// TestAIMDStationaryConvergence pins).
package adapt

import (
	"time"

	"listset/internal/obs"
	"listset/internal/trylock"
)

// Config tunes the controller. The zero value of any field means its
// default; Config{} is a fully usable configuration.
type Config struct {
	// Interval is the control period. Default 50ms: long enough that
	// counter deltas are statistically meaningful, short enough to
	// react within a benchmark's measured window.
	Interval time.Duration

	// ContentionHigh and ContentionLow bound the hysteresis band on
	// the contended-acquisition ratio (contended try-locks per
	// operation). Above High, hot shards' ceilings widen; below Low,
	// all ceilings decay. Defaults 0.10 and 0.02.
	ContentionHigh float64
	ContentionLow  float64
	// CeilingStep is the additive spin-ceiling increase per widen.
	// Default 512.
	CeilingStep int32

	// BudgetBase is the retry budget the controller starts from and
	// relaxes back to; BudgetMin is the floor tightening stops at.
	// Defaults 32 and 4. (The max is the base: the controller never
	// loosens the ladder past what the operator configured.)
	BudgetBase int
	BudgetMin  int
	// ValFailHigh and ValFailLow bound the hysteresis band on the
	// validation-failure ratio (failed validations + failed CASes per
	// operation). Defaults 0.25 and 0.05.
	ValFailHigh float64
	ValFailLow  float64

	// ShedContention is the contended-acquisition ratio that trips
	// overload shedding (two consecutive intervals). Default 0.50.
	ShedContention float64
	// ShedRecover is how many intervals below ContentionHigh end
	// shedding. Default 5.
	ShedRecover int
}

// WithDefaults returns the configuration with every zero field
// replaced by its documented default — the exact Config New runs.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.ContentionHigh == 0 {
		c.ContentionHigh = 0.10
	}
	if c.ContentionLow == 0 {
		c.ContentionLow = 0.02
	}
	if c.CeilingStep == 0 {
		c.CeilingStep = 512
	}
	if c.BudgetBase == 0 {
		c.BudgetBase = 32
	}
	if c.BudgetMin == 0 {
		c.BudgetMin = 4
	}
	if c.ValFailHigh == 0 {
		c.ValFailHigh = 0.25
	}
	if c.ValFailLow == 0 {
		c.ValFailLow = 0.05
	}
	if c.ShedContention == 0 {
		c.ShedContention = 0.50
	}
	if c.ShedRecover == 0 {
		c.ShedRecover = 5
	}
	return c
}

// Stats is the controller's decision tally, returned by Stop and
// rendered into the benchmark report's "adapt" section.
type Stats struct {
	Ticks         uint64 `json:"ticks"`
	BackoffWiden  uint64 `json:"backoff_widen"`
	BackoffDecay  uint64 `json:"backoff_decay"`
	BudgetTighten uint64 `json:"budget_tighten"`
	BudgetRelax   uint64 `json:"budget_relax"`
	Sheds         uint64 `json:"sheds"`
	Unsheds       uint64 `json:"unsheds"`
	// FinalBudget and FinalCeilings are the actuator positions at
	// Stop, for post-run inspection.
	FinalBudget   int     `json:"final_budget"`
	FinalCeilings []int32 `json:"final_ceilings,omitempty"`
	Shedding      bool    `json:"shedding"`
}

// shardActuator is the shard-façade surface the per-shard backoff
// loop needs: the load histogram that picks the hot shards and one
// backoff policy per shard to widen. *shard.Sharded satisfies it.
type shardActuator interface {
	Shards() int
	EnableLoadStats()
	LoadCounts() []uint64
	SetShardBackoffs([]*trylock.Backoff)
}

// Controller is one feedback loop bound to one set. Construct with
// New before the set is shared, Start it alongside the workers, Stop
// it after they drain.
type Controller struct {
	cfg    Config
	probes *obs.Probes
	ops    func() uint64 // cumulative operation count, monotone

	// Actuator surfaces (nil when the set does not support one).
	rb       obs.RetryBudgeted
	sharded  shardActuator
	backoffs []*trylock.Backoff // per shard, or one entry for plain sets

	// Tick state (single-goroutine; tests drive tick() directly).
	prev      obs.Snapshot
	prevOps   uint64
	prevLoads []uint64
	budget    int
	hiTicks   int // consecutive intervals at/above ShedContention
	quiet     int // consecutive intervals below ContentionHigh while shedding
	shedding  bool

	stats Stats
	stop  chan struct{}
	done  chan struct{}
}

// New binds a controller to set, discovering which actuator surfaces
// it offers, and pre-positions them (budget at BudgetBase, default
// ceilings). Must run before the set is shared: it arms the shard
// façade's load stats.
// ops must return the cumulative operation count the controller
// normalizes counter deltas by (monotone, safe to call concurrently).
func New(set any, p *obs.Probes, ops func() uint64, cfg Config) *Controller {
	cfg = cfg.WithDefaults()
	c := &Controller{
		cfg:    cfg,
		probes: p,
		ops:    ops,
		budget: cfg.BudgetBase,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if rb, ok := set.(obs.RetryBudgeted); ok {
		c.rb = rb
		rb.SetRetryBudget(c.budget)
	}
	if sh, ok := set.(shardActuator); ok {
		c.sharded = sh
		sh.EnableLoadStats()
		bs := make([]*trylock.Backoff, sh.Shards())
		for i := range bs {
			bs[i] = trylock.NewBackoff()
		}
		sh.SetShardBackoffs(bs)
		c.backoffs = bs
		c.prevLoads = make([]uint64, len(bs))
	} else if b := trylock.NewBackoff(); trylock.AttachBackoff(set, b) {
		c.backoffs = []*trylock.Backoff{b}
	}
	return c
}

// Start launches the control loop.
func (c *Controller) Start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.tick()
			}
		}
	}()
}

// Stop halts the loop and returns the decision tally.
func (c *Controller) Stop() Stats {
	close(c.stop)
	<-c.done
	return c.snapshotStats()
}

func (c *Controller) snapshotStats() Stats {
	st := c.stats
	st.FinalBudget = c.budget
	st.Shedding = c.shedding
	for _, b := range c.backoffs {
		st.FinalCeilings = append(st.FinalCeilings, b.Ceiling())
	}
	return st
}

// emit records a controller decision as an obs event so the flight
// recorder can order it against the contention that caused it.
func (c *Controller) emit(ev obs.Event, key int64) {
	if p := c.probes; obs.On(p) {
		p.Inc(ev, key)
	}
}

// tick runs one control interval: sample deltas, update each
// actuator. It is the whole controller; Start merely calls it on a
// timer, and the stability test calls it directly.
func (c *Controller) tick() {
	c.stats.Ticks++
	snap := c.probes.Snapshot()
	ops := c.ops()
	d := snap.Sub(c.prev)
	dOps := ops - c.prevOps
	c.prev, c.prevOps = snap, ops
	if dOps == 0 {
		return // idle interval; no signal to act on
	}

	contention := float64(d[obs.EvTryLockContended]) / float64(dOps)
	valfail := float64(d[obs.EvValFailDeleted]+d[obs.EvValFailSucc]+d[obs.EvValFailValue]+d[obs.EvCASFail]) / float64(dOps)

	loads := c.loadDeltas()
	c.adaptShedding(contention)
	if !c.shedding {
		c.adaptBackoff(contention, loads)
		c.adaptBudget(valfail)
	}
}

// adaptShedding is the overload breaker around the finer loops.
func (c *Controller) adaptShedding(contention float64) {
	if !c.shedding {
		if contention >= c.cfg.ShedContention {
			c.hiTicks++
			if c.hiTicks >= 2 {
				c.shed()
			}
		} else {
			c.hiTicks = 0
		}
		return
	}
	if contention < c.cfg.ContentionHigh {
		c.quiet++
		if c.quiet >= c.cfg.ShedRecover {
			c.unshed()
		}
	} else {
		c.quiet = 0
	}
}

// shed trips the overload state: pin ceilings at the limit (waiters
// sleep instead of stampeding the lock words) and floor the retry
// budget (doomed ops give up their window early).
func (c *Controller) shed() {
	c.shedding = true
	c.hiTicks, c.quiet = 0, 0
	c.stats.Sheds++
	for _, b := range c.backoffs {
		b.SetCeiling(trylock.CeilingLimit)
	}
	c.setBudget(c.cfg.BudgetMin)
	c.emit(obs.EvAdaptShed, 0)
}

// unshed restores the pre-shed actuator positions; the finer loops
// take over again next tick.
func (c *Controller) unshed() {
	c.shedding = false
	c.stats.Unsheds++
	for _, b := range c.backoffs {
		b.SetCeiling(trylock.DefaultMaxSpin)
	}
	c.setBudget(c.cfg.BudgetBase)
	c.emit(obs.EvAdaptUnshed, 0)
}

// adaptBackoff runs the AIMD loop on the spin ceilings. Additive
// increase targets only the shards carrying more than their fair
// share of the load (the per-shard load histogram localizes what the
// stripe heatmap can only detect); multiplicative decrease relaxes
// everyone once the contention signal clears the low-water mark.
// Between the marks: the hysteresis dead band where a stationary
// workload comes to rest. A ceiling already at its bound (the limit
// for a widen, the default for a decay) is left alone and not counted:
// every counted decision is an actual change.
func (c *Controller) adaptBackoff(contention float64, loads []uint64) {
	if len(c.backoffs) == 0 {
		return
	}
	switch {
	case contention > c.cfg.ContentionHigh:
		for i, b := range c.backoffs {
			cur := b.Ceiling()
			if cur >= trylock.CeilingLimit || !aboveFairShare(loads, i) {
				continue
			}
			b.SetCeiling(cur + c.cfg.CeilingStep) // clamps at CeilingLimit
			c.stats.BackoffWiden++
			c.emit(obs.EvAdaptBackoffWiden, int64(i))
		}
	case contention < c.cfg.ContentionLow:
		for i, b := range c.backoffs {
			cur := b.Ceiling()
			if cur <= trylock.DefaultMaxSpin {
				continue
			}
			next := cur * 3 / 4
			if next < trylock.DefaultMaxSpin {
				next = trylock.DefaultMaxSpin
			}
			b.SetCeiling(next)
			c.stats.BackoffDecay++
			c.emit(obs.EvAdaptBackoffDecay, int64(i))
		}
	}
}

// loadDeltas returns this interval's per-shard routed-op counts (nil
// for non-sharded sets).
func (c *Controller) loadDeltas() []uint64 {
	if c.sharded == nil {
		return nil
	}
	cur := c.sharded.LoadCounts()
	if cur == nil {
		return nil
	}
	d := make([]uint64, len(cur))
	for i := range cur {
		d[i] = cur[i] - c.prevLoads[i]
	}
	c.prevLoads = cur
	return d
}

// aboveFairShare reports whether shard i carried more than its fair
// share this interval. With no load histogram (plain sets, disabled
// stats) every policy is eligible — the single-policy degenerate case.
func aboveFairShare(loads []uint64, i int) bool {
	if len(loads) <= 1 {
		return true
	}
	var total uint64
	for _, l := range loads {
		total += l
	}
	if total == 0 {
		return false
	}
	return loads[i]*uint64(len(loads)) > total
}

// adaptBudget runs the hysteresis loop on the retry budget: halve
// toward the floor under a validation-failure storm (ops that keep
// losing re-validation should escalate and back off sooner), double
// back toward the configured baseline when the storm passes.
func (c *Controller) adaptBudget(valfail float64) {
	if c.rb == nil {
		return
	}
	switch {
	case valfail > c.cfg.ValFailHigh && c.budget > c.cfg.BudgetMin:
		next := c.budget / 2
		if next < c.cfg.BudgetMin {
			next = c.cfg.BudgetMin
		}
		c.setBudget(next)
		c.stats.BudgetTighten++
		c.emit(obs.EvAdaptBudgetTighten, int64(next))
	case valfail < c.cfg.ValFailLow && c.budget < c.cfg.BudgetBase:
		next := c.budget * 2
		if next > c.cfg.BudgetBase {
			next = c.cfg.BudgetBase
		}
		c.setBudget(next)
		c.stats.BudgetRelax++
		c.emit(obs.EvAdaptBudgetRelax, int64(next))
	}
}

func (c *Controller) setBudget(k int) {
	c.budget = k
	if c.rb != nil {
		c.rb.SetRetryBudget(k)
	}
}
