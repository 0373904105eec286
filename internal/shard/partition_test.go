package shard

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"listset/internal/trylock"
)

// The TestRebalance* names are historical: the façade once moved its
// boundaries online. They now check the static partition's misuse
// surface, its oracle agreement and its behaviour under concurrent
// seam churn.

// lockedSet wraps sliceSet behind a mutex: a concurrent backing set
// for the churn test.
type lockedSet struct {
	mu sync.Mutex
	s  sliceSet
}

func newLockedSet() Set { return &lockedSet{} }

func (l *lockedSet) Insert(v int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Insert(v)
}

func (l *lockedSet) Remove(v int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Remove(v)
}

func (l *lockedSet) Contains(v int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Contains(v)
}

func (l *lockedSet) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Len()
}

func (l *lockedSet) Snapshot() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Snapshot()
}

// tunableSet records the backoff policy SetShardBackoffs hands it.
type tunableSet struct {
	sliceSet
	b *trylock.Backoff
}

func (t *tunableSet) SetBackoff(b *trylock.Backoff) { t.b = b }

// TestRebalanceErrors pins the façade's misuse panics: a backoff table
// whose length is not Shards(), and the NewRange inputs
// TestNewRangePanics leaves out. The well-formed neighbours of each
// case must not panic.
func TestRebalanceErrors(t *testing.T) {
	var made []*tunableSet
	s := NewRange(4, 0, 100, func() Set {
		ts := &tunableSet{}
		made = append(made, ts)
		return ts
	})
	policies := func(n int) []*trylock.Backoff {
		bs := make([]*trylock.Backoff, n)
		for i := range bs {
			bs[i] = trylock.NewBackoff()
		}
		return bs
	}
	cases := []struct {
		name  string
		f     func()
		panic bool
	}{
		{"backoffs: too few", func() { s.SetShardBackoffs(policies(3)) }, true},
		{"backoffs: too many", func() { s.SetShardBackoffs(policies(5)) }, true},
		{"backoffs: nil", func() { s.SetShardBackoffs(nil) }, true},
		{"backoffs: one per shard", func() { s.SetShardBackoffs(policies(4)) }, false},
		{"range: inverted", func() { NewRange(4, 10, 5, newSliceSet) }, true},
		// uint64 width arithmetic would wrap this to a full-domain width.
		{"range: inverted at the int64 edges", func() { NewRange(4, math.MaxInt64, math.MinInt64, newSliceSet) }, true},
		{"range: nil ctor over an empty range", func() { NewRange(4, 3, 3, nil) }, true},
		{"range: one key at the top edge", func() { NewRange(4, math.MaxInt64-1, math.MaxInt64, newSliceSet) }, false},
		{"range: full domain", func() { NewRange(MaxShards, math.MinInt64, math.MaxInt64, newSliceSet) }, false},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if got := recover() != nil; got != c.panic {
					t.Errorf("%s: panicked = %v, want %v", c.name, got, c.panic)
				}
			}()
			c.f()
		}()
	}
	// Only the well-formed table attached, policy i to shard i.
	bs := policies(4)
	s.SetShardBackoffs(bs)
	for i, ts := range made {
		if ts.b != bs[i] {
			t.Fatalf("shard %d holds the wrong backoff policy", i)
		}
	}
}

// TestRebalanceSequentialOracle runs one operation script — point ops,
// batches and range scans, with keys below the focus range and above
// its covered prefix — against a map oracle over static façades of 1,
// 4 and 16 shards, checking contents, order and routing between
// phases.
func TestRebalanceSequentialOracle(t *testing.T) {
	const lo, hi = 0, 1000 // every shard count below covers [0, 1024)
	for _, shards := range []int{1, 4, 16} {
		s := NewRange(shards, lo, hi, newSliceSet)
		oracle := map[int64]bool{}
		rng := rand.New(rand.NewSource(11))
		key := func() int64 { return int64(rng.Intn(1200) - 100) }

		check := func(tag string) {
			t.Helper()
			if got, want := s.Len(), len(oracle); got != want {
				t.Fatalf("S=%d %s: Len = %d, want %d", shards, tag, got, want)
			}
			snap := s.Snapshot()
			if len(snap) != len(oracle) {
				t.Fatalf("S=%d %s: Snapshot has %d keys, want %d", shards, tag, len(snap), len(oracle))
			}
			for i, k := range snap {
				if i > 0 && snap[i-1] >= k {
					t.Fatalf("S=%d %s: Snapshot not strictly ascending at %d", shards, tag, i)
				}
				if !oracle[k] {
					t.Fatalf("S=%d %s: Snapshot has phantom key %d", shards, tag, k)
				}
			}
			// Routing agreement: every key lives in the shard the
			// partition assigns it, and the out-of-focus keys in the
			// edge shards.
			for i := range s.slots {
				for _, k := range s.slots[i].set.Snapshot() {
					if got := s.shardOf(k); got != i {
						t.Fatalf("S=%d %s: key %d resides in shard %d but routes to %d", shards, tag, k, i, got)
					}
					if k < lo && i != 0 || k >= 1024 && i != shards-1 {
						t.Fatalf("S=%d %s: out-of-focus key %d in shard %d", shards, tag, k, i)
					}
				}
			}
		}

		for i := 0; i < 600; i++ {
			k := key()
			s.Insert(k)
			oracle[k] = true
		}
		check("after load")

		for i := 0; i < 4000; i++ {
			switch rng.Intn(5) {
			case 0:
				k := key()
				if got, want := s.Insert(k), !oracle[k]; got != want {
					t.Fatalf("S=%d: Insert(%d) = %v, want %v", shards, k, got, want)
				}
				oracle[k] = true
			case 1:
				k := key()
				if got, want := s.Remove(k), oracle[k]; got != want {
					t.Fatalf("S=%d: Remove(%d) = %v, want %v", shards, k, got, want)
				}
				delete(oracle, k)
			case 2:
				k := key()
				if got := s.Contains(k); got != oracle[k] {
					t.Fatalf("S=%d: Contains(%d) = %v, want %v", shards, k, got, oracle[k])
				}
			case 3:
				// A batch with duplicates, spread over the whole range.
				ks := make([]int64, 1+rng.Intn(24))
				for j := range ks {
					ks[j] = key()
				}
				want := map[int64]bool{}
				for _, k := range ks {
					want[k] = true
				}
				n := 0
				switch rng.Intn(3) {
				case 0:
					for k := range want {
						if !oracle[k] {
							n++
						}
						oracle[k] = true
					}
					if got := s.InsertAll(ks); got != n {
						t.Fatalf("S=%d: InsertAll(%v) = %d, want %d", shards, ks, got, n)
					}
				case 1:
					for k := range want {
						if oracle[k] {
							n++
						}
						delete(oracle, k)
					}
					if got := s.RemoveAll(ks); got != n {
						t.Fatalf("S=%d: RemoveAll(%v) = %d, want %d", shards, ks, got, n)
					}
				default:
					for k := range want {
						if oracle[k] {
							n++
						}
					}
					if got := s.ContainsAll(ks); got != n {
						t.Fatalf("S=%d: ContainsAll(%v) = %d, want %d", shards, ks, got, n)
					}
				}
			default:
				a, b := key(), key()
				if a > b {
					a, b = b, a
				}
				var want []int64
				for k := range oracle {
					if k >= a && k < b {
						want = append(want, k)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if got := s.RangeScan(a, b); !slices.Equal(got, want) {
					t.Fatalf("S=%d: RangeScan(%d, %d) = %v, want %v", shards, a, b, got, want)
				}
			}
		}
		check("after churn")
	}
}

// TestRebalanceDuringChurn is the concurrent seam test the CI race leg
// runs on the static partition: point workers churn keys hugging every
// seam (plus keys outside the focus range) on disjoint key sets, so
// each worker's view must be exactly sequential; a batch worker
// inserts, checks and removes blocks that straddle every seam; a
// reader checks that Snapshot, RangeScan and Ascend stay strictly
// ascending throughout. At quiescence Len, Snapshot and RangeScan must
// equal the union of the workers' oracles.
func TestRebalanceDuringChurn(t *testing.T) {
	const (
		workers  = 4
		keySpace = 8192
		steps    = 6000
	)
	s := NewRange(8, 0, keySpace, newLockedSet)
	s.EnableLoadStats()

	var points, block []int64
	for _, b := range s.Boundaries()[1:] {
		for d := int64(-2); d < 2; d++ {
			points = append(points, b+d)
		}
		for d := int64(8); d < 40; d++ {
			block = append(block, b-d, b+d)
		}
	}
	points = append(points, -2, -1, keySpace, keySpace+1000)

	oracles := make([]map[int64]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		oracles[w] = map[int64]bool{}
		wg.Add(1)
		go func(w int, oracle map[int64]bool) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < steps; i++ {
				// Worker w owns points[j] for j ≡ w (mod workers).
				k := points[rng.Intn(len(points)/workers)*workers+w]
				switch rng.Intn(3) {
				case 0:
					if got, want := s.Insert(k), !oracle[k]; got != want {
						t.Errorf("worker %d: Insert(%d) = %v, want %v", w, k, got, want)
						return
					}
					oracle[k] = true
				case 1:
					if got, want := s.Remove(k), oracle[k]; got != want {
						t.Errorf("worker %d: Remove(%d) = %v, want %v", w, k, got, want)
						return
					}
					delete(oracle, k)
				default:
					if got := s.Contains(k); got != oracle[k] {
						t.Errorf("worker %d: Contains(%d) = %v, want %v", w, k, got, oracle[k])
						return
					}
				}
			}
		}(w, oracles[w])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 60; round++ {
			if got := s.InsertAll(block); got != len(block) {
				t.Errorf("batch: InsertAll = %d, want %d", got, len(block))
				return
			}
			if got := s.ContainsAll(block); got != len(block) {
				t.Errorf("batch: ContainsAll = %d, want %d", got, len(block))
				return
			}
			if got := s.RemoveAll(block); got != len(block) {
				t.Errorf("batch: RemoveAll = %d, want %d", got, len(block))
				return
			}
		}
	}()
	ascending := func(what string, ks []int64) bool {
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				t.Errorf("%s not strictly ascending at %d: %d, %d", what, i, ks[i-1], ks[i])
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var walked []int64
			s.Ascend(-100, func(v int64) bool { walked = append(walked, v); return true })
			if !ascending("Snapshot", s.Snapshot()) || !ascending("RangeScan", s.RangeScan(-100, 2*keySpace)) ||
				!ascending("Ascend", walked) {
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	var want []int64
	for _, o := range oracles {
		for k := range o {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := s.Len(); got != len(want) {
		t.Fatalf("quiescent Len = %d, want %d", got, len(want))
	}
	if got := s.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("quiescent Snapshot = %v, want %v", got, want)
	}
	if got := s.RangeScan(-100, 2*keySpace); !slices.Equal(got, want) {
		t.Fatalf("quiescent RangeScan = %v, want %v", got, want)
	}
	var total uint64
	for _, n := range s.LoadCounts() {
		total += n
	}
	if total != workers*steps {
		t.Fatalf("LoadCounts sum to %d routed point ops, want %d", total, workers*steps)
	}
}
