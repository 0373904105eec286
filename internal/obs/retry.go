// Bounded-retry observability: the paper's update operations retry
// through failed validations and failed CASes without any bound — fine
// for the theorems, hostile in production, where one adversarial
// interleaving (or an injected failpoint) can spin an operation
// forever. This file holds the retry *budget* machinery shared by the
// instrumented lists: a per-operation Escalator that walks the ladder
//
//	native restart policy  →  head-restart  →  head-restart + backoff
//
// after K and 2K failed-validation restarts, and a RetryCounter that
// aggregates what the escalators saw into per-run RetryStats.
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

// Escalator tracks one operation's failed-validation restarts against
// the list's retry budget K. Restarts [0, K) keep the list's native
// restart policy; [K, 2K) escalate the restart locality to head (a
// no-op for lists whose native policy already is the head-restart —
// construct those with HeadNative and the ladder collapses to
// "backoff after K"); from the backoff threshold on, every restart
// also yields to the scheduler with a budget that grows with the
// overshoot, so a stampede of doomed retries degrades into polite
// polling instead of a cache-line war.
//
// The zero value (Budget 0) never escalates, reproducing the paper's
// unbounded retry loop exactly.
type Escalator struct {
	// Budget is the list's retry budget K; 0 disables escalation.
	Budget int
	// HeadNative marks lists whose native restart policy is already
	// the head-restart (Lazy, Harris): stage one of the ladder is
	// skipped and backoff begins at K instead of 2K.
	HeadNative bool

	n int
}

// Restarts returns the number of failed-validation restarts so far.
func (e *Escalator) Restarts() int { return e.n }

// escalatedHead reports whether the op crossed into the head-restart
// stage (never for head-native lists, whose ladder has no such stage).
func (e *Escalator) escalatedHead() bool {
	return e.Budget > 0 && !e.HeadNative && e.n >= e.Budget
}

// backoffAt returns the restart count at which backoff begins.
func (e *Escalator) backoffAt() int {
	if e.HeadNative {
		return e.Budget
	}
	return 2 * e.Budget
}

// Failed records one failed-validation restart and reports whether the
// operation must now restart from head rather than its native restart
// point. It performs the backoff itself once the op is past the
// backoff threshold, and counts the two escalation transitions into p
// (which may be nil).
func (e *Escalator) Failed(p *Probes, key int64) (headRestart bool) {
	e.n++
	if e.Budget <= 0 {
		return false
	}
	if !e.HeadNative && e.n == e.Budget {
		if On(p) {
			p.Inc(EvRetryEscalateHead, key)
		}
	}
	if at := e.backoffAt(); e.n >= at {
		if e.n == at {
			if On(p) {
				p.Inc(EvRetryEscalateBackoff, key)
			}
		}
		// Brief backoff, linear in the overshoot and capped: enough to
		// let the competitors the op keeps losing to drain, bounded so
		// a single unlucky op never parks for long.
		rounds := e.n - at + 1
		if rounds > 8 {
			rounds = 8
		}
		for i := 0; i < rounds; i++ {
			runtime.Gosched()
		}
	}
	return e.escalatedHead()
}

// Done folds the finished operation into c (nil-safe); call it once on
// every return path of an op that may have restarted.
func (e *Escalator) Done(c *RetryCounter) {
	if e.n == 0 || c == nil {
		return
	}
	c.observe(uint64(e.n), e.escalatedHead(), e.n >= e.backoffAt() && e.Budget > 0)
}
