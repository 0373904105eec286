package trylock

import (
	"testing"
	"time"

	"listset/internal/failpoint"
)

// TestChaosHookPausesAcquisition proves the SiteTryLockAcquire hook is
// live: a one-shot pause armed on the global chaos set parks the next
// Lock before its first CAS, and Resume releases it.
func TestChaosHookPausesAcquisition(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: the acquisition hook is compiled out")
	}
	fp := failpoint.NewSet()
	SetChaos(fp)
	defer SetChaos(nil)
	p, err := fp.PauseAt(failpoint.SiteTryLockAcquire)
	if err != nil {
		t.Fatal(err)
	}
	var l SpinLock
	acquired := make(chan struct{})
	go func() {
		//lint:ignore locksafe deliberate cross-goroutine transfer: the test body unlocks after observing `acquired`
		l.Lock()
		close(acquired)
	}()
	if err := p.AwaitReached(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if l.Locked() {
		t.Fatal("lock acquired while parked at the acquisition failpoint")
	}
	p.Resume()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("Lock did not complete after Resume")
	}
	l.Unlock()
}

// TestChaosHookDetached proves SetChaos(nil) fully detaches: Lock and
// LockContended run with no failpoint consultation afterwards.
func TestChaosHookDetached(t *testing.T) {
	fp := failpoint.NewSet()
	if err := fp.Arm(failpoint.Scenario{Site: failpoint.SiteTryLockAcquire, Action: failpoint.ActDelay, Delay: time.Hour}); err != nil {
		t.Fatal(err)
	}
	SetChaos(fp)
	SetChaos(nil)
	var l SpinLock
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		l.LockContended()
		l.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("detached chaos set still delayed an acquisition")
	}
}
