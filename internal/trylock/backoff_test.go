package trylock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffMutualExclusion hammers one lock from many goroutines
// with a plain (non-atomic) shared counter in the critical section.
// Run under -race (the CI race gate does) this doubles as the data-race
// proof that the backoff rewrite still establishes happens-before
// edges through the lock word.
func TestBackoffMutualExclusion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var (
		l       SpinLock
		counter int // deliberately unsynchronized; the lock must protect it
		wg      sync.WaitGroup
	)
	const (
		goroutines = 8
		increments = 5000
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := goroutines * increments; counter != want {
		t.Fatalf("counter = %d, want %d (lost increments => mutual exclusion broken)", counter, want)
	}
}

// TestLockContendedCountsUnderBackoff verifies the contended-
// acquisition signal the observability layer counts still fires with
// exponential backoff on the slow path, and that every LockContended
// call nevertheless ends holding the lock. Contention is not left to
// scheduling luck (on a single-core runner a worker can finish its
// whole loop inside one quantum): the test holds the lock itself while
// the workers start, so their first attempts must fail.
func TestLockContendedCountsUnderBackoff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var (
		l         SpinLock
		contended atomic.Int64
		held      int // protected by l; validates each acquisition
		wg        sync.WaitGroup
	)
	const (
		goroutines   = 8
		acquisitions = 2000
	)
	l.Lock()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < acquisitions; i++ {
				if l.LockContended() {
					contended.Add(1)
				}
				held++
				l.Unlock()
			}
		}()
	}
	// Yield long enough for the workers to run into the held lock, then
	// release it and let the hammer loop finish.
	time.Sleep(20 * time.Millisecond)
	l.Unlock()
	wg.Wait()
	if want := goroutines * acquisitions; held != want {
		t.Fatalf("held = %d, want %d", held, want)
	}
	if contended.Load() == 0 {
		t.Fatal("no contended acquisitions observed across 8 goroutines x 2000 acquisitions; LockContended no longer reports contention")
	}
}

// TestBackoffSpinPathMutualExclusion forces the multiprocessor spin
// path (the uniprocessor flag short-circuits it on single-core CI
// machines) and re-proves mutual exclusion through the exponential
// backoff loop itself. The flag flips happen before the workers start
// and after they join, so they are race-free.
func TestBackoffSpinPathMutualExclusion(t *testing.T) {
	old := uniprocessor
	uniprocessor = false
	defer func() { uniprocessor = old }()
	var (
		l       SpinLock
		counter int
		wg      sync.WaitGroup
	)
	const (
		goroutines = 4
		increments = 2000
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := goroutines * increments; counter != want {
		t.Fatalf("counter = %d, want %d", counter, want)
	}
}

// TestBackoffEventuallyAcquiresAfterLongHold pins the liveness of the
// capped backoff: a waiter whose budget has escalated to the maximum
// must still acquire promptly once the lock frees.
func TestBackoffEventuallyAcquiresAfterLongHold(t *testing.T) {
	var l SpinLock
	l.Lock()
	done := make(chan struct{})
	go func() {
		// This waiter spins through the whole exponential range and
		// into the yield regime while the test goroutine holds on.
		l.Lock()
		l.Unlock()
		close(done)
	}()
	// Force the waiter past maxSpin: yield the CPU to it repeatedly
	// while the lock stays held.
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	l.Unlock()
	<-done
}

// TestBackoffPerInstance: backoff state lives in each waiter, not in
// the lock or the package, so a waiter escalated to the ceiling on one
// lock never slows or flags acquisitions of another. While a is held
// and its waiter backs off, b must still be taken uncontended.
func TestBackoffPerInstance(t *testing.T) {
	var a, b SpinLock
	a.Lock()
	done := make(chan struct{})
	go func() {
		a.Lock()
		a.Unlock()
		close(done)
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		if b.LockContended() {
			t.Fatalf("round %d: b.LockContended() reported contention while only a was held", i)
		}
		b.Unlock()
	}
	a.Unlock()
	<-done
	if a.Locked() || b.Locked() {
		t.Fatal("a lock is left held after every holder released it")
	}
}

// TestLockWithMutualExclusion re-proves mutual exclusion on the
// default contended path with Lock and LockContended callers mixed on
// one lock, the spin path forced on (as TestBackoffSpinPathMutualExclusion
// does) and critical sections that yield, so waiters run through the
// whole doubling range into the yield regime.
func TestLockWithMutualExclusion(t *testing.T) {
	old := uniprocessor
	uniprocessor = false
	defer func() { uniprocessor = old }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var (
		l         SpinLock
		counter   int // protected by l
		contended atomic.Int64
		wg        sync.WaitGroup
	)
	const (
		goroutines = 4
		increments = 3000
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				if id%2 == 0 {
					l.Lock()
				} else if l.LockContended() {
					contended.Add(1)
				}
				counter++
				if i%64 == 0 {
					runtime.Gosched() // hold across a yield
				}
				l.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if want := goroutines * increments; counter != want {
		t.Fatalf("counter = %d, want %d (lost increments on the contended path)", counter, want)
	}
	t.Logf("%d contended LockContended acquisitions", contended.Load())
}
