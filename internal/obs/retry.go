// Bounded-retry observability: the paper's update operations retry
// through failed validations and failed CASes without any bound — fine
// for the theorems, hostile in production, where one adversarial
// interleaving (or an injected failpoint) can spin an operation
// forever. This file holds the retry *budget* machinery shared by the
// instrumented lists: a Ladder each set embeds, holding the budget and
// a RetryCounter that aggregates what its operations saw into per-run
// RetryStats, and a per-operation Escalator that counts every restart
// and walks the ladder
//
//	native restart policy  →  head-restart  →  head-restart + backoff
//
// after K and 2K failed-validation restarts.
package obs

import (
	"runtime"
	"sync/atomic"
)

// RetryStats is the aggregated view of the restarts a set's update
// operations needed. Zero value = no operation ever restarted.
type RetryStats struct {
	// Ops counts update operations that restarted at least once.
	Ops uint64
	// Restarts counts failed-validation (or failed-CAS) restarts.
	Restarts uint64
	// EscalatedHead counts operations that crossed the retry budget
	// and escalated their restart locality to head.
	EscalatedHead uint64
	// EscalatedBackoff counts operations that crossed twice the budget
	// and started backing off between restarts.
	EscalatedBackoff uint64
	// MaxRestarts is the most restarts any single operation needed.
	MaxRestarts uint64
}

// Add returns the field-wise sum of s and o (MaxRestarts: the max).
func (s RetryStats) Add(o RetryStats) RetryStats {
	s.Ops += o.Ops
	s.Restarts += o.Restarts
	s.EscalatedHead += o.EscalatedHead
	s.EscalatedBackoff += o.EscalatedBackoff
	if o.MaxRestarts > s.MaxRestarts {
		s.MaxRestarts = o.MaxRestarts
	}
	return s
}

// Sub returns the field-wise difference s - o, for bracketing a
// measured interval with two Stats reads. MaxRestarts carries s's
// value unchanged: a maximum has no meaningful delta, and the worst op
// seen by the later snapshot is still the honest "worst so far". The
// counters behind each field are monotone, so two in-order reads of
// one set never go negative; the subtraction still saturates at zero
// per field, so reads passed out of order (or taken from two different
// sets) floor at zero instead of wrapping to 2^64.
func (s RetryStats) Sub(o RetryStats) RetryStats {
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	s.Ops = sat(s.Ops, o.Ops)
	s.Restarts = sat(s.Restarts, o.Restarts)
	s.EscalatedHead = sat(s.EscalatedHead, o.EscalatedHead)
	s.EscalatedBackoff = sat(s.EscalatedBackoff, o.EscalatedBackoff)
	return s
}

// Zero reports whether no operation ever restarted.
func (s RetryStats) Zero() bool { return s == RetryStats{} }

// RetryCounter accumulates RetryStats from concurrent operations. The
// zero value is ready to use; it must not be copied after first use.
type RetryCounter struct {
	ops, restarts, escHead, escBackoff, maxRestarts atomic.Uint64
}

// observe folds one finished operation's escalator into the counter.
func (c *RetryCounter) observe(restarts uint64, escHead, escBackoff bool) {
	c.ops.Add(1)
	c.restarts.Add(restarts)
	if escHead {
		c.escHead.Add(1)
	}
	if escBackoff {
		c.escBackoff.Add(1)
	}
	for {
		max := c.maxRestarts.Load()
		if restarts <= max || c.maxRestarts.CompareAndSwap(max, restarts) {
			return
		}
	}
}

// Stats returns the counter's current aggregate. Exact at quiescence.
func (c *RetryCounter) Stats() RetryStats {
	return RetryStats{
		Ops:              c.ops.Load(),
		Restarts:         c.restarts.Load(),
		EscalatedHead:    c.escHead.Load(),
		EscalatedBackoff: c.escBackoff.Load(),
		MaxRestarts:      c.maxRestarts.Load(),
	}
}

// RetryBudgeted is implemented by set algorithms with a bounded-retry
// escalation ladder. SetRetryBudget(0) restores the paper's unbounded
// behaviour; RetryStats reports what the ladder saw either way.
type RetryBudgeted interface {
	SetRetryBudget(k int)
	RetryStats() RetryStats
}

// AttachRetryBudget sets the retry budget on set if the algorithm
// supports one and reports whether it did.
func AttachRetryBudget(set any, k int) bool {
	if rb, ok := set.(RetryBudgeted); ok {
		rb.SetRetryBudget(k)
		return true
	}
	return false
}

// Ladder is a set's bounded-retry ladder: the retry budget K and the
// tally of what its operations' escalators saw. A set embeds one and
// so implements RetryBudgeted; each update operation begins an
// Escalator from it. The zero value has budget 0 (the paper's
// unbounded retries) and is ready to use; it must not be copied after
// first use.
type Ladder struct {
	budget atomic.Int32
	retry  RetryCounter
}

// SetRetryBudget sets the retry budget K: past K restarts a
// prev-native operation escalates its restarts to head, and past 2K
// (K for head-native ones) it also backs off between attempts. 0
// restores the paper's unbounded retry loop. The budget is atomic, so
// it may be retuned while the set is shared; each in-flight operation
// keeps the budget it began with.
func (l *Ladder) SetRetryBudget(k int) { l.budget.Store(int32(k)) }

// RetryStats reports the aggregated restart and escalation tallies.
func (l *Ladder) RetryStats() RetryStats { return l.retry.Stats() }

// Begin starts one operation's escalator. native is the set's native
// restart event — EvRestartPrev for VBL's prev-restart, EvRestartHead
// or EvSkipRestartL0 for the lists that natively restart from head —
// and batch marks a key of a batch pass, whose restarts also count as
// EvBatchWindowRestart. p (nil when detached) receives the events.
func (l *Ladder) Begin(p *Probes, native Event, batch bool) Escalator {
	return Escalator{ladder: l, p: p, budget: int(l.budget.Load()), native: native, batch: batch}
}

// Escalator tracks one operation's restarts against the ladder's
// retry budget K and counts each of them. Restarts [0, K) keep the
// list's native restart policy; [K, 2K) escalate the restart locality
// to head (a no-op for head-native lists, whose ladder collapses to
// "backoff after K"); from the backoff threshold on, every restart
// also yields to the scheduler with a budget that grows with the
// overshoot, so a stampede of doomed retries degrades into polite
// polling instead of a cache-line war.
//
// Budget 0 never escalates, reproducing the paper's unbounded retry
// loop exactly.
type Escalator struct {
	ladder *Ladder
	p      *Probes
	budget int
	native Event
	batch  bool
	n      int
}

// headNative reports whether the list's native restart is already the
// head-restart, so the ladder has no head stage.
func (e *Escalator) headNative() bool { return e.native != EvRestartPrev }

// escalatedHead reports whether the op crossed into the head-restart
// stage (never for head-native lists, whose ladder has no such stage).
func (e *Escalator) escalatedHead() bool {
	return e.budget > 0 && !e.headNative() && e.n >= e.budget
}

// backoffAt returns the restart count at which backoff begins.
func (e *Escalator) backoffAt() int {
	if e.headNative() {
		return e.budget
	}
	return 2 * e.budget
}

// Failed records one restart of the operation on key and reports
// whether it must now restart from head rather than its native restart
// point. It counts the restart — the native event, or EvRestartHead
// once the ladder has escalated to head — plus EvBatchWindowRestart for
// a batch key and the two escalation transitions, and performs the
// backoff itself once the op is past the backoff threshold.
func (e *Escalator) Failed(key int64) (headRestart bool) {
	e.n++
	head := e.escalatedHead()
	if p := e.p; On(p) {
		ev := e.native
		if head {
			ev = EvRestartHead
		}
		p.Inc(ev, key)
		if e.batch {
			p.Inc(EvBatchWindowRestart, key)
		}
		if e.n == e.budget && !e.headNative() {
			p.Inc(EvRetryEscalateHead, key)
		}
		if e.n == e.backoffAt() {
			p.Inc(EvRetryEscalateBackoff, key)
		}
	}
	if at := e.backoffAt(); e.budget > 0 && e.n >= at {
		// Brief backoff, linear in the overshoot and capped: enough to
		// let the competitors the op keeps losing to drain, bounded so
		// a single unlucky op never parks for long.
		rounds := min(e.n-at+1, 8)
		for i := 0; i < rounds; i++ {
			runtime.Gosched()
		}
	}
	return head
}

// Done folds the finished operation into the ladder's tally; call it
// once on every return path of an op that may have restarted.
func (e *Escalator) Done() {
	if e.n == 0 {
		return
	}
	e.ladder.retry.observe(uint64(e.n), e.escalatedHead(), e.budget > 0 && e.n >= e.backoffAt())
}
