package obs

import (
	"sync"
	"testing"
)

func TestEscalatorZeroValueNeverEscalates(t *testing.T) {
	var l Ladder
	p := NewProbes()
	e := l.Begin(p, EvRestartPrev, false)
	for i := 0; i < 100; i++ {
		if e.Failed(1) {
			t.Fatalf("zero-budget escalator demanded a head restart on restart %d", i)
		}
	}
	s := p.Snapshot()
	if s[EvRetryEscalateHead] != 0 || s[EvRetryEscalateBackoff] != 0 {
		t.Fatalf("zero-budget escalator fired escalation events: %v", s)
	}
	e.Done()
	got := l.RetryStats()
	if got.Ops != 1 || got.Restarts != 100 || got.MaxRestarts != 100 {
		t.Fatalf("Stats = %+v", got)
	}
	if got.EscalatedHead != 0 || got.EscalatedBackoff != 0 {
		t.Fatalf("zero-budget op recorded as escalated: %+v", got)
	}
}

// failOnce calls e.Failed and checks that the call counted exactly one
// restart event, want, and one batch_window_restart exactly when the
// escalator belongs to a batch key. It returns Failed's verdict.
func failOnce(t *testing.T, e *Escalator, p *Probes, want Event, batch bool) (headRestart bool) {
	t.Helper()
	before := p.Snapshot()
	headRestart = e.Failed(7)
	d := p.Snapshot().Sub(before)
	for _, ev := range []Event{EvRestartPrev, EvRestartHead, EvSkipRestartL0} {
		n := uint64(0)
		if ev == want {
			n = 1
		}
		if d[ev] != n {
			t.Fatalf("restart %d counted %s %d times, want %d", e.n, ev, d[ev], n)
		}
	}
	n := uint64(0)
	if batch {
		n = 1
	}
	if d[EvBatchWindowRestart] != n {
		t.Fatalf("restart %d (batch %v) counted batch_window_restart %d times, want %d", e.n, batch, d[EvBatchWindowRestart], n)
	}
	return headRestart
}

func TestEscalatorLadder(t *testing.T) {
	const k = 3
	for _, batch := range []bool{false, true} {
		var l Ladder
		l.SetRetryBudget(k)
		p := NewProbes()
		e := l.Begin(p, EvRestartPrev, batch)
		// Restarts [1, K): native policy, counted as the native event.
		for i := 1; i < k; i++ {
			if failOnce(t, &e, p, EvRestartPrev, batch) {
				t.Fatalf("restart %d escalated before the budget", i)
			}
		}
		// Restart K: head escalation begins, the event fires exactly
		// once, and from here on every restart counts as restart_head.
		if !failOnce(t, &e, p, EvRestartHead, batch) {
			t.Fatal("restart K did not escalate to head")
		}
		for i := k + 1; i < 2*k; i++ {
			if !failOnce(t, &e, p, EvRestartHead, batch) {
				t.Fatalf("restart %d dropped back below head escalation", i)
			}
		}
		s := p.Snapshot()
		if s[EvRetryEscalateHead] != 1 {
			t.Fatalf("retry_escalate_head = %d, want 1", s[EvRetryEscalateHead])
		}
		if s[EvRetryEscalateBackoff] != 0 {
			t.Fatal("backoff event fired before 2K restarts")
		}
		// Restart 2K: backoff begins, one event, still head-restarting.
		if !failOnce(t, &e, p, EvRestartHead, batch) {
			t.Fatal("restart 2K did not stay escalated")
		}
		failOnce(t, &e, p, EvRestartHead, batch)
		s = p.Snapshot()
		if s[EvRetryEscalateBackoff] != 1 {
			t.Fatalf("retry_escalate_backoff = %d, want 1", s[EvRetryEscalateBackoff])
		}
		e.Done()
		got := l.RetryStats()
		if got.EscalatedHead != 1 || got.EscalatedBackoff != 1 || got.Restarts != 2*k+1 {
			t.Fatalf("Stats = %+v", got)
		}
	}
}

func TestEscalatorHeadNativeSkipsStageOne(t *testing.T) {
	const k = 2
	for _, native := range []Event{EvRestartHead, EvSkipRestartL0} {
		for _, batch := range []bool{false, true} {
			var l Ladder
			l.SetRetryBudget(k)
			p := NewProbes()
			e := l.Begin(p, native, batch)
			// Every restart counts as the native event: past the budget
			// there is no head stage to escalate into.
			for i := 0; i < 3*k; i++ {
				if failOnce(t, &e, p, native, batch) {
					t.Fatal("head-native escalator demanded a head restart (its caller already does that)")
				}
			}
			s := p.Snapshot()
			if s[EvRetryEscalateHead] != 0 {
				t.Fatal("head-native list fired retry_escalate_head")
			}
			// Backoff begins at K, not 2K, for head-native lists.
			if s[EvRetryEscalateBackoff] != 1 {
				t.Fatalf("retry_escalate_backoff = %d, want 1", s[EvRetryEscalateBackoff])
			}
			e.Done()
			got := l.RetryStats()
			if got.EscalatedHead != 0 || got.EscalatedBackoff != 1 || got.Restarts != 3*k {
				t.Fatalf("Stats = %+v", got)
			}
		}
	}
}

func TestEscalatorDoneSkipsCleanOps(t *testing.T) {
	var l Ladder
	l.SetRetryBudget(4)
	e := l.Begin(nil, EvRestartPrev, false)
	e.Done() // no restarts: not recorded
	var z Escalator
	z.Done() // zero escalator: safe
	if !l.RetryStats().Zero() {
		t.Fatalf("clean op recorded: %+v", l.RetryStats())
	}
}

func TestRetryStatsAddAndZero(t *testing.T) {
	a := RetryStats{Ops: 1, Restarts: 5, MaxRestarts: 5}
	b := RetryStats{Ops: 2, Restarts: 3, EscalatedHead: 1, MaxRestarts: 2}
	sum := a.Add(b)
	want := RetryStats{Ops: 3, Restarts: 8, EscalatedHead: 1, MaxRestarts: 5}
	if sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	if !(RetryStats{}).Zero() || sum.Zero() {
		t.Fatal("Zero misclassified")
	}
}

func TestRetryCounterConcurrent(t *testing.T) {
	var l Ladder
	l.SetRetryBudget(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e := l.Begin(nil, EvRestartPrev, false)
				e.Failed(int64(i))
				if w == 0 && i == 0 {
					e.Failed(0) // one op with two restarts
				}
				e.Done()
			}
		}(w)
	}
	wg.Wait()
	got := l.RetryStats()
	if got.Ops != 8000 || got.Restarts != 8001 || got.MaxRestarts != 2 {
		t.Fatalf("Stats = %+v", got)
	}
}

func TestAttachRetryBudget(t *testing.T) {
	var b budgeted
	if !AttachRetryBudget(&b, 7) {
		t.Fatal("AttachRetryBudget refused a RetryBudgeted")
	}
	if b.k != 7 {
		t.Fatalf("budget = %d, want 7", b.k)
	}
	if AttachRetryBudget(struct{}{}, 7) {
		t.Fatal("AttachRetryBudget accepted a plain struct")
	}
}

type budgeted struct{ k int }

func (b *budgeted) SetRetryBudget(k int)   { b.k = k }
func (b *budgeted) RetryStats() RetryStats { return RetryStats{} }
