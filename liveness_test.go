package listset

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeadlockFreedom is the executable counterpart of the paper's
// deadlock-freedom observation (§3.2): under saturating contention on a
// tiny key range, system-wide progress must continue — a watchdog
// requires the global completed-operations counter to keep moving until
// every worker finishes its quota. A lock-ordering bug or a lost-wakeup
// spin would freeze the counter and fail the test within the timeout.
func TestDeadlockFreedom(t *testing.T) {
	forEachConcurrentMode(t, 0, 4, func(t *testing.T, im Impl) {
		s := im.New()
		const (
			goroutines = 12 // oversubscribed on any host
			opsPerG    = 8000
			keyRange   = 4 // nearly every operation conflicts
		)
		var completed atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerG; i++ {
					k := int64(rng.Intn(keyRange))
					switch rng.Intn(3) {
					case 0:
						s.Insert(k)
					case 1:
						s.Remove(k)
					default:
						s.Contains(k)
					}
					completed.Add(1)
				}
			}(int64(g) + 77)
		}

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()

		// Watchdog: the counter must advance between consecutive checks.
		last := int64(-1)
		ticker := time.NewTicker(250 * time.Millisecond)
		defer ticker.Stop()
		stalls := 0
		for {
			select {
			case <-done:
				if got := completed.Load(); got != goroutines*opsPerG {
					t.Fatalf("completed %d ops, want %d", got, goroutines*opsPerG)
				}
				return
			case <-ticker.C:
				now := completed.Load()
				if now == last {
					stalls++
					if stalls >= 40 { // 10s of zero progress
						buf := make([]byte, 1<<16)
						n := runtime.Stack(buf, true)
						t.Fatalf("no progress for 10s at %d/%d ops — deadlock?\n%s",
							now, goroutines*opsPerG, buf[:n])
					}
				} else {
					stalls = 0
				}
				last = now
			}
		}
	})
}

// TestOversubscribedProgress pushes far more goroutines than cores
// through a mixed workload; every goroutine must finish (no starvation
// of any single worker) within the test timeout.
func TestOversubscribedProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription soak skipped in -short mode")
	}
	forEachConcurrentMode(t, 0, 16, func(t *testing.T, im Impl) {
		s := im.New()
		goroutines := 16 * runtime.GOMAXPROCS(0)
		if goroutines > 128 {
			goroutines = 128
		}
		var wg sync.WaitGroup
		var finished atomic.Int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 2000; i++ {
					k := int64(rng.Intn(16))
					switch rng.Intn(3) {
					case 0:
						s.Insert(k)
					case 1:
						s.Remove(k)
					default:
						s.Contains(k)
					}
				}
				finished.Add(1)
			}(int64(g) + 500)
		}
		wg.Wait()
		if got := finished.Load(); got != int64(goroutines) {
			t.Fatalf("%d of %d workers finished", got, goroutines)
		}
	})
}
