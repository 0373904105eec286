package listset

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentDisjointKeys gives each goroutine a disjoint key stripe.
// Operations on disjoint keys must not interfere, so every per-goroutine
// result is exactly predictable and the final contents are exact.
func TestConcurrentDisjointKeys(t *testing.T) {
	forEachConcurrentMode(t, 0, 512, func(t *testing.T, im Impl) {
		s := im.New()
		const (
			goroutines   = 8
			keysPerGorou = 64
			rounds       = 50
		)
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				base := int64(g * keysPerGorou)
				for r := 0; r < rounds; r++ {
					for k := int64(0); k < keysPerGorou; k++ {
						v := base + k
						if !s.Insert(v) {
							errs <- "Insert of owned absent key returned false"
							return
						}
						if !s.Contains(v) {
							errs <- "Contains of just-inserted owned key returned false"
							return
						}
					}
					for k := int64(0); k < keysPerGorou; k++ {
						v := base + k
						if r == rounds-1 && k%2 == 0 {
							continue // leave evens in on the final round
						}
						if !s.Remove(v) {
							errs <- "Remove of owned present key returned false"
							return
						}
						if s.Contains(v) {
							errs <- "Contains of just-removed owned key returned true"
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		// Exactly the even keys of every stripe remain.
		want := goroutines * keysPerGorou / 2
		if got := s.Len(); got != want {
			t.Fatalf("final Len = %d, want %d", got, want)
		}
		for g := 0; g < goroutines; g++ {
			for k := int64(0); k < keysPerGorou; k++ {
				v := int64(g*keysPerGorou) + k
				if s.Contains(v) != (k%2 == 0) {
					t.Fatalf("final Contains(%d) = %v, want %v", v, s.Contains(v), k%2 == 0)
				}
			}
		}
	})
}

// TestConcurrentBalance hammers a small shared key range from many
// goroutines and checks the fundamental set invariant: for every key,
// successful inserts and successful removes must alternate, so
//
//	inserts(k) - removes(k) == 1  if k is in the final set
//	inserts(k) - removes(k) == 0  otherwise
//
// A lost update, double insert, or double remove breaks the balance.
func TestConcurrentBalance(t *testing.T) {
	forEachConcurrentMode(t, 0, 32, func(t *testing.T, im Impl) {
		s := im.New()
		const (
			keyRange   = 32
			goroutines = 8
			opsPerG    = 30000
		)
		var inserts, removes [keyRange]atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerG; i++ {
					k := rng.Intn(keyRange)
					switch rng.Intn(3) {
					case 0:
						if s.Insert(int64(k)) {
							inserts[k].Add(1)
						}
					case 1:
						if s.Remove(int64(k)) {
							removes[k].Add(1)
						}
					default:
						s.Contains(int64(k))
					}
				}
			}(int64(g) + 1)
		}
		wg.Wait()
		for k := 0; k < keyRange; k++ {
			diff := inserts[k].Load() - removes[k].Load()
			var want int64
			if s.Contains(int64(k)) {
				want = 1
			}
			if diff != want {
				t.Fatalf("key %d: inserts-removes = %d, want %d (present=%v)",
					k, diff, want, want == 1)
			}
		}
		// The snapshot must agree with Contains at quiescence.
		snap := s.Snapshot()
		inSnap := map[int64]bool{}
		for i, v := range snap {
			inSnap[v] = true
			if i > 0 && snap[i-1] >= v {
				t.Fatalf("Snapshot not strictly ascending: %v", snap)
			}
		}
		for k := int64(0); k < keyRange; k++ {
			if s.Contains(k) != inSnap[k] {
				t.Fatalf("key %d: Contains=%v but Snapshot membership=%v", k, s.Contains(k), inSnap[k])
			}
		}
	})
}

// TestConcurrentReadersDuringChurn runs wait-free readers concurrently
// with writers that continuously remove and reinsert a band of keys.
// Keys outside the churn band are permanent: readers must always find
// them, no matter what unlinking is in flight around them.
func TestConcurrentReadersDuringChurn(t *testing.T) {
	forEachConcurrentMode(t, 0, 128, func(t *testing.T, im Impl) {
		s := im.New()
		const (
			permanent  = 64 // keys 0,2,4,... are never touched
			churn      = 64 // odd keys churn
			readers    = 4
			writers    = 4
			roundsPerW = 4000
		)
		for k := int64(0); k < permanent+churn; k++ {
			s.Insert(k)
		}
		var stop atomic.Bool
		var writerWG, readerWG sync.WaitGroup
		errs := make(chan string, readers+writers)
		for w := 0; w < writers; w++ {
			writerWG.Add(1)
			go func(seed int64) {
				defer writerWG.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < roundsPerW; i++ {
					k := int64(rng.Intn(churn))*2 + 1 // odd keys only
					if s.Remove(k) {
						if !s.Insert(k) {
							errs <- "reinsert of removed churn key failed"
							return
						}
					}
				}
			}(int64(w) + 100)
		}
		for r := 0; r < readers; r++ {
			readerWG.Add(1)
			go func(seed int64) {
				defer readerWG.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					k := int64(rng.Intn(permanent)) * 2 // even keys only
					if !s.Contains(k) {
						errs <- "permanent key vanished during churn"
						return
					}
				}
			}(int64(r) + 200)
		}
		writerWG.Wait()
		stop.Store(true)
		readerWG.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		for k := int64(0); k < permanent; k++ {
			if !s.Contains(k * 2) {
				t.Fatalf("permanent key %d missing at quiescence", k*2)
			}
		}
	})
}

// TestConcurrentInsertersSameKey has every goroutine insert the same key;
// exactly one may win each generation.
func TestConcurrentInsertersSameKey(t *testing.T) {
	forEachConcurrentMode(t, 0, 7, func(t *testing.T, im Impl) {
		s := im.New()
		const (
			goroutines  = 8
			generations = 2000
		)
		var wins atomic.Int64
		for gen := 0; gen < generations; gen++ {
			key := int64(gen % 7)
			var wg sync.WaitGroup
			wins.Store(0)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if s.Insert(key) {
						wins.Add(1)
					}
				}()
			}
			wg.Wait()
			if w := wins.Load(); w != 1 {
				t.Fatalf("generation %d: %d successful inserts of the same absent key, want 1", gen, w)
			}
			if !s.Remove(key) {
				t.Fatalf("generation %d: cleanup Remove failed", gen)
			}
		}
	})
}

// TestConcurrentRemoversSameKey mirrors the above for removes.
func TestConcurrentRemoversSameKey(t *testing.T) {
	forEachConcurrentMode(t, 0, 7, func(t *testing.T, im Impl) {
		s := im.New()
		const (
			goroutines  = 8
			generations = 2000
		)
		var wins atomic.Int64
		for gen := 0; gen < generations; gen++ {
			key := int64(gen % 7)
			if !s.Insert(key) {
				t.Fatalf("generation %d: setup Insert failed", gen)
			}
			var wg sync.WaitGroup
			wins.Store(0)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if s.Remove(key) {
						wins.Add(1)
					}
				}()
			}
			wg.Wait()
			if w := wins.Load(); w != 1 {
				t.Fatalf("generation %d: %d successful removes of the same present key, want 1", gen, w)
			}
		}
	})
}

// TestConcurrentShardBoundaryChurn hammers the seams of a tight
// sharded partition (4 shards over [0, 64), boundaries 16/32/48):
// writers churn the key pairs straddling each boundary plus keys
// outside the focus range (which clamp to the edge shards), while
// readers verify a permanent key in the middle of every shard. A
// routing bug — boundary key owned by two shards or by none — shows up
// as a lost permanent key, a failed owned-key reinsert, or a
// non-ascending snapshot. The unsharded modes run the same churn as a
// control.
func TestConcurrentShardBoundaryChurn(t *testing.T) {
	forEachConcurrentMode(t, 0, 64, func(t *testing.T, im Impl) {
		s := im.New()
		permanent := []int64{8, 24, 40, 56} // one mid-shard key per shard
		for _, k := range permanent {
			s.Insert(k)
		}
		// Each writer exclusively owns one boundary-straddling or
		// out-of-range key, so both halves of its churn must succeed.
		churn := []int64{15, 16, 31, 32, 47, 48, -5, 70}
		const rounds = 10000
		var stop atomic.Bool
		var writerWG, readerWG sync.WaitGroup
		errs := make(chan string, len(churn)+2)
		for _, k := range churn {
			writerWG.Add(1)
			go func(k int64) {
				defer writerWG.Done()
				for i := 0; i < rounds; i++ {
					if !s.Insert(k) || !s.Remove(k) {
						errs <- "owned boundary-key churn failed"
						return
					}
				}
			}(k)
		}
		for r := 0; r < 2; r++ {
			readerWG.Add(1)
			go func(seed int64) {
				defer readerWG.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					k := permanent[rng.Intn(len(permanent))]
					if !s.Contains(k) {
						errs <- "mid-shard permanent key vanished during boundary churn"
						return
					}
				}
			}(int64(r) + 300)
		}
		writerWG.Wait()
		stop.Store(true)
		readerWG.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		if got, want := s.Len(), len(permanent); got != want {
			t.Fatalf("final Len = %d, want %d", got, want)
		}
		snap := s.Snapshot()
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				t.Fatalf("Snapshot not strictly ascending across seams: %v", snap)
			}
		}
	})
}

// TestConcurrentNeighbourUpdates stresses the windows the paper's
// validation arguments are about: adjacent keys inserted and removed
// concurrently, so unlinks race with links into the same window.
func TestConcurrentNeighbourUpdates(t *testing.T) {
	forEachConcurrentMode(t, 0, 4, func(t *testing.T, im Impl) {
		s := im.New()
		// Anchor nodes so every churn key has stable far neighbours.
		s.Insert(-100)
		s.Insert(100)
		const rounds = 20000
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Goroutine g churns key g; neighbours churn
				// concurrently, hitting shared windows constantly.
				k := int64(g)
				for i := 0; i < rounds; i++ {
					ok1 := s.Insert(k)
					ok2 := s.Remove(k)
					if ok1 != true && ok2 != true {
						// Each goroutine exclusively owns k, so both must
						// always succeed; sanity-checked below.
						panic("owned-key operation failed")
					}
				}
			}(g)
		}
		wg.Wait()
		if !s.Contains(-100) || !s.Contains(100) {
			t.Fatal("anchor keys lost during neighbour churn")
		}
		for k := int64(0); k < 4; k++ {
			if s.Contains(k) {
				t.Fatalf("churn key %d present after balanced insert/remove rounds", k)
			}
		}
	})
}
