// Package trylock provides the CAS-based try-lock that underpins the
// value-aware synchronization of the VBL list (Aksenov et al., PACT 2021).
//
// The paper implements its per-node lock "using compare-and-swap"; this
// package is the direct Go translation: a single-word spin lock whose
// TryLock is one CompareAndSwap, plus a blocking Lock that spins with
// exponential back-off onto the scheduler. A sync.Mutex-backed twin
// (MutexLock) is provided so benchmarks can ablate the choice of lock
// substrate (see BenchmarkAblationLock).
package trylock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A TryLocker is a mutual-exclusion lock that additionally supports a
// non-blocking acquisition attempt.
type TryLocker interface {
	sync.Locker
	// TryLock attempts to acquire the lock without blocking and reports
	// whether it succeeded. On success the caller must eventually Unlock.
	TryLock() bool
}

// SpinLock is a CAS-based spin lock. The zero value is an unlocked lock.
//
// It is intentionally minimal: one word of state, acquisition by a single
// CompareAndSwap, release by a single Store. Under contention Lock yields
// to the Go scheduler between attempts so that spinning goroutines do not
// starve the lock holder on oversubscribed machines (the paper's thread
// counts exceed core counts at the top of its sweeps).
type SpinLock struct {
	state atomic.Int32
}

const (
	unlocked int32 = 0
	locked   int32 = 1
)

// TryLock attempts to acquire l without blocking.
func (l *SpinLock) TryLock() bool {
	return l.state.CompareAndSwap(unlocked, locked)
}

// uniprocessor reports whether only one goroutine can run at a time; in
// that case busy-waiting can never observe the holder make progress, so
// Lock yields immediately instead of spinning.
var uniprocessor = runtime.GOMAXPROCS(0) == 1

// Bounds of the contended path's exponential backoff. A waiter
// that loses the acquisition CAS watches the lock word for up to its
// current spin budget, doubling the budget each contended round from
// DefaultMinSpin loads up to the ceiling; once the budget is maxed the
// waiter yields to the scheduler between attempts instead of burning
// the core. The doubling desynchronizes waiters — after a release, the
// waiter with the smallest budget retries first while the others are
// still backing off — so N spinners do not stampede the lock word with
// N simultaneous CASes, each of which would bounce the cache line even
// when it fails. The critical sections these locks guard are a handful
// of instructions, so the budget starts small: the lock usually frees
// up within the first round.
const (
	// DefaultMinSpin is the first contended round's spin budget.
	DefaultMinSpin int32 = 4
	// DefaultMaxSpin is the spin ceiling: the budget at which a waiter
	// stops doubling and starts yielding to the scheduler.
	DefaultMaxSpin int32 = 1 << 9
)

// Lock acquires l, spinning with bounded exponential backoff until it
// is available.
func (l *SpinLock) Lock() { l.LockContended() }

// LockContended acquires l like Lock and additionally reports whether
// the immediate first attempt failed — the "try-lock acquisition
// failure" signal the observability layer (internal/obs) counts. The
// extra return is the only difference from Lock; use it at probe-
// enabled call sites and plain Lock everywhere else.
func (l *SpinLock) LockContended() (contended bool) {
	chaosPoint()
	if l.TryLock() {
		return false
	}
	for spin := DefaultMinSpin; !l.TryLock(); {
		// On a uniprocessor the holder cannot run while we spin —
		// yield straight away.
		if uniprocessor {
			runtime.Gosched()
			continue
		}
		// Contended: watch the lock word for up to the current budget,
		// leaving early if it frees up, then escalate.
		for i := int32(0); i < spin; i++ {
			if l.state.Load() == unlocked {
				break
			}
		}
		if spin < DefaultMaxSpin {
			spin <<= 1
		} else {
			runtime.Gosched()
		}
	}
	return true
}

// Unlock releases l. It must only be called while holding the lock;
// unlocking an unlocked SpinLock panics, mirroring sync.Mutex.
func (l *SpinLock) Unlock() {
	if !l.state.CompareAndSwap(locked, unlocked) {
		panic("trylock: unlock of unlocked SpinLock")
	}
}

// Locked reports whether l is currently held by some goroutine. It is a
// racy snapshot intended for tests and assertions only.
func (l *SpinLock) Locked() bool {
	return l.state.Load() == locked
}

// MutexLock adapts sync.Mutex to TryLocker. It exists so the benchmark
// suite can compare the paper's CAS try-lock against the runtime mutex
// under identical algorithms.
type MutexLock struct {
	mu sync.Mutex
}

// TryLock attempts to acquire l without blocking.
func (l *MutexLock) TryLock() bool { return l.mu.TryLock() }

// Lock acquires l, blocking until it is available.
func (l *MutexLock) Lock() { l.mu.Lock() }

// LockContended acquires l, reporting whether the immediate first
// attempt failed (SpinLock parity for the observability layer).
func (l *MutexLock) LockContended() (contended bool) {
	if l.TryLock() {
		return false
	}
	l.mu.Lock()
	return true
}

// Unlock releases l.
func (l *MutexLock) Unlock() { l.mu.Unlock() }

var (
	_ TryLocker = (*SpinLock)(nil)
	_ TryLocker = (*MutexLock)(nil)
)
