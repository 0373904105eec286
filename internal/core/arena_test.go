package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"listset/internal/failpoint"
	"listset/internal/mem"
)

// TestArenaVBLOracle checks the arena-backed VBL against a map oracle
// through a long sequential mixed workload, with enough churn that
// nodes demonstrably recycle mid-run.
func TestArenaVBLOracle(t *testing.T) {
	s := NewArena()
	oracle := map[int64]bool{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(64)
		switch rng.Intn(3) {
		case 0:
			if got, want := s.Insert(v), !oracle[v]; got != want {
				t.Fatalf("op %d: Insert(%d) = %v, oracle says %v", i, v, got, want)
			}
			oracle[v] = true
		case 1:
			if got, want := s.Remove(v), oracle[v]; got != want {
				t.Fatalf("op %d: Remove(%d) = %v, oracle says %v", i, v, got, want)
			}
			delete(oracle, v)
		default:
			if got, want := s.Contains(v), oracle[v]; got != want {
				t.Fatalf("op %d: Contains(%d) = %v, oracle says %v", i, v, got, want)
			}
		}
	}
	if got, want := s.Len(), len(oracle); got != want {
		t.Fatalf("Len = %d, oracle has %d", got, want)
	}
	for i, v := range s.Snapshot() {
		if !oracle[v] {
			t.Fatalf("Snapshot[%d] = %d not in oracle", i, v)
		}
	}
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("ArenaStats reports no arena on NewArena()")
	}
	if st.Recycled == 0 {
		t.Errorf("20000 mixed ops recycled nothing: %+v", st)
	}
}

// TestArenaGraceAcrossPausedTraversal is the deterministic replay of
// the reclamation contract: a traversal parked at the SiteVBLTraverse
// failpoint holds its epoch pin, so no amount of concurrent churn may
// advance the epoch past pin+1 or recycle anything; releasing the
// pause lets the grace period expire and recycling resume.
func TestArenaGraceAcrossPausedTraversal(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no pause to park the traversal with")
	}
	const pauseKey = 1000
	s := New()
	s.arena = mem.New[node](mem.Options{AdvanceEvery: 1})
	fps := failpoint.NewSet()
	s.SetFailpoints(fps)

	pause, err := fps.PauseAt(failpoint.SiteVBLTraverse, pauseKey)
	if err != nil {
		t.Fatal(err)
	}
	e0 := mustStats(t, s).Epoch

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Insert(pauseKey) // pins at entry, parks mid-traversal
	}()
	if err := pause.AwaitReached(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Churn other keys hard: every Remove retires a node, AdvanceEvery=1
	// attempts an advance per retire — all must refuse past e0+1.
	for i := int64(0); i < 50; i++ {
		s.Insert(i)
		s.Remove(i)
	}
	st := mustStats(t, s)
	if st.Epoch > e0+1 {
		t.Errorf("epoch advanced to %d across a traversal pinned at %d (max legal %d)", st.Epoch, e0, e0+1)
	}
	if st.Recycled != 0 {
		t.Errorf("%d nodes recycled while a pinned traversal was parked", st.Recycled)
	}

	pause.Resume()
	<-done
	for i := int64(0); i < 50; i++ {
		s.Insert(i)
		s.Remove(i)
	}
	st = mustStats(t, s)
	if st.Epoch < e0+2 {
		t.Errorf("epoch %d after resume and churn, want >= %d", st.Epoch, e0+2)
	}
	if st.Recycled == 0 {
		t.Errorf("nothing recycled after the parked traversal resumed")
	}
}

func mustStats(t *testing.T, s *VBL) mem.Stats {
	t.Helper()
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("no arena attached")
	}
	return st
}

// TestRaceArenaRecycleVsTraversal hammers node recycling against
// concurrent wait-free traversals under the race detector: mutators
// Insert/Remove over a small key range (maximum recycle pressure)
// while readers run Contains/Len/Snapshot, whose unprotected
// dereferences are exactly what the epoch pin must keep safe.
func TestRaceArenaRecycleVsTraversal(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	s := New()
	s.arena = mem.New[node](mem.Options{SlabSize: 32, AdvanceEvery: 4})

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				v := rng.Int63n(32)
				if rng.Intn(2) == 0 {
					s.Insert(v)
				} else {
					s.Remove(v)
				}
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters; i++ {
				switch rng.Intn(8) {
				case 0:
					s.Len()
				case 1:
					s.Snapshot()
				default:
					s.Contains(rng.Int63n(32))
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Quiescent drain: under heavy machine load the concurrent phase can
	// end before the epoch advances far enough for any limbo bucket to
	// come back. A few single-threaded churn rounds force retire +
	// advance + recycle deterministically; the race pressure above is
	// what the test is for.
	for round := 0; round < 8; round++ {
		for v := int64(0); v < 32; v++ {
			s.Insert(v)
		}
		for v := int64(0); v < 32; v++ {
			s.Remove(v)
		}
	}

	st := mustStats(t, s)
	if st.Recycled == 0 {
		t.Errorf("stress run recycled nothing (epoch %d, retired %d): the hazard went unexercised", st.Epoch, st.Retired)
	}
	if st.Recycled > st.Retired {
		t.Errorf("Recycled %d > Retired %d", st.Recycled, st.Retired)
	}
}
