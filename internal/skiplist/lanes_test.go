package skiplist

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"listset/internal/mem"
)

// vbModes is the GC-backed and the arena-backed VB list.
var vbModes = []struct {
	name string
	mk   func() *VB
}{{"gc", NewVB}, {"arena", NewVBArena}}

// TestVBBatchLaneStartDied pins the live re-check behind each key's
// turn in a lane group. The group descent records a lane's level-0
// start before the earlier keys of the batch take their turns; here
// that start is removed in between and the lane's key inserted right
// behind it, so the dead start's frozen next0 skips past the key. Each
// per-key pass must see through it: ContainsAll counts the key,
// InsertAll reports it present, RemoveAll removes it.
func TestVBBatchLaneStartDied(t *testing.T) {
	grp := []int64{15, 25, 35}
	const lane, v, dead = 1, 25, 20
	for _, mode := range vbModes {
		for _, pass := range []struct {
			name string
			want bool
			// run is one key's turn of the batch operation from the
			// lane's descent; prev chains ContainsAll's level-0 walks.
			run func(s *VB, tn *laneTurn) bool
		}{
			{"ContainsAll", true, func(s *VB, tn *laneTurn) bool {
				var curr *vbNode
				tn.prev, curr = s.containsFrom(tn.lanes[0][tn.i], tn.prev, tn.v)
				return curr.val == tn.v && !curr.isDeleted()
			}},
			{"InsertAll", false, func(s *VB, tn *laneTurn) bool {
				var fingers [maxLevel]*vbNode
				s.laneFingers(&tn.lanes, tn.i, &fingers)
				return s.insertFrom(tn.g, tn.v, &fingers, true)
			}},
			{"RemoveAll", true, func(s *VB, tn *laneTurn) bool {
				var fingers [maxLevel]*vbNode
				s.laneFingers(&tn.lanes, tn.i, &fingers)
				return s.removeFrom(tn.g, tn.v, &fingers, true)
			}},
		} {
			t.Run(mode.name+"/"+pass.name, func(t *testing.T) {
				s := mode.mk()
				s.InsertAll([]int64{10, 20, 30, 40})
				turn := laneTurn{g: s.arena.Pin()}
				var fingers [maxLevel]*vbNode
				s.descendLanes(grp, &fingers, &turn.lanes)
				start := turn.lanes[0][lane]
				if start.val != dead {
					t.Fatalf("lane %d (key %d) starts at %d, want %d", lane, v, start.val, dead)
				}
				// The pin held above keeps the removed tower from being
				// recycled into the insert, as a batch call's pin does.
				if !s.Remove(dead) || !s.Insert(v) {
					t.Fatal("setup Remove/Insert failed")
				}
				if got := start.next0.Load().val; got != 30 {
					t.Fatalf("removed start's next0 = %d, want the frozen 30 that skips %d", got, v)
				}
				var got bool
				for turn.i, turn.v = range grp {
					if r := pass.run(s, &turn); turn.v == v {
						got = r
					}
				}
				// A lone turn with no previous key re-descends from head.
				if pass.name == "ContainsAll" {
					if _, curr := s.containsFrom(start, nil, v); curr.val != v {
						t.Errorf("lone lane walk stopped at %d, want %d", curr.val, v)
					}
				}
				turn.g.Unpin()
				if got != pass.want {
					t.Fatalf("%s turn for %d = %v, want %v", pass.name, v, got, pass.want)
				}
				checkTowerShapes(t, s)
			})
		}
	}
}

// laneTurn is the state one group's per-key passes share.
type laneTurn struct {
	g     mem.Guard[vbNode]
	lanes vbLanes
	prev  *vbNode
	i     int
	v     int64
}

// TestVBBatchLanesOracle drives the batch operations across lane-group
// boundaries — batch sizes below, at and past batchLanes, duplicates
// included — on keys packed densely and spread sparsely, in both
// modes, and checks every count against a map oracle.
func TestVBBatchLanesOracle(t *testing.T) {
	sizes := []int{1, 7, 8, 9, 17, 64, 200}
	const pool = 1024
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for _, mode := range vbModes {
		for _, stride := range []int64{1, 1021} {
			t.Run(fmt.Sprintf("%s/stride=%d", mode.name, stride), func(t *testing.T) {
				s := mode.mk()
				oracle := map[int64]bool{}
				rng := rand.New(rand.NewSource(stride))
				for r := 0; r < rounds; r++ {
					for _, size := range sizes {
						ks := make([]int64, size)
						for i := range ks {
							ks[i] = rng.Int63n(pool) * stride
						}
						ks[size-1] = ks[0] // a duplicate (or, at size 1, the key itself)
						distinct := distinctSorted(ks)
						op := rng.Intn(3)
						want := 0
						for _, k := range distinct {
							if oracle[k] == (op == 0) {
								continue
							}
							want++
							switch op {
							case 0:
								oracle[k] = true
							case 1:
								delete(oracle, k)
							}
						}
						var got int
						switch op {
						case 0:
							got = s.InsertAll(ks)
						case 1:
							got = s.RemoveAll(ks)
						default:
							got = s.ContainsAll(ks)
						}
						if got != want {
							t.Fatalf("round %d size %d op %d: got %d, want %d", r, size, op, got, want)
						}
					}
				}
				if got := s.Len(); got != len(oracle) {
					t.Fatalf("Len = %d, oracle holds %d", got, len(oracle))
				}
				checkTowerShapes(t, s)
			})
		}
	}
}

// distinctSorted returns the batch as the batch operations see it:
// sorted, duplicates dropped.
func distinctSorted(ks []int64) []int64 {
	ks = slices.Clone(ks)
	slices.Sort(ks)
	return slices.Compact(ks)
}

// TestVBBatchLanesStableKeys runs ContainsAll against concurrent churn:
// four goroutines insert and remove odd keys (two per key, two through
// the batch operations) while readers count batches that mix them with
// stable keys — multiples of 4 always present, 4k+2 never. Every stable
// present key must be counted and no stable absent one, so each count
// lies in [stable present, stable present + odd keys in the batch].
func TestVBBatchLanesStableKeys(t *testing.T) {
	const span, window, batchSize = 1 << 13, 512, 64
	reads := 600
	if testing.Short() {
		reads = 150
	}
	for _, mode := range vbModes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			var stable []int64
			for k := int64(0); k < span; k += 4 {
				stable = append(stable, k)
			}
			s.Load(stable)
			stop := make(chan struct{})
			var churn sync.WaitGroup
			for w := 0; w < 4; w++ {
				churn.Add(1)
				go func(w int) {
					defer churn.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					ks := make([]int64, 16)
					for {
						select {
						case <-stop:
							return
						default:
						}
						lo := rng.Int63n(span - window)
						for i := range ks {
							ks[i] = (lo + rng.Int63n(window)) | 1
						}
						switch {
						case w >= 2 && rng.Intn(2) == 0:
							s.InsertAll(ks)
						case w >= 2:
							s.RemoveAll(ks)
						case rng.Intn(2) == 0:
							s.Insert(ks[0])
						default:
							s.Remove(ks[0])
						}
					}
				}(w)
			}
			var readers sync.WaitGroup
			errs := make(chan error, 2)
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					ks := make([]int64, batchSize)
					for n := 0; n < reads; n++ {
						lo := rng.Int63n(span - window)
						for i := range ks {
							ks[i] = lo + rng.Int63n(window)
						}
						present, odd := 0, 0
						for _, k := range distinctSorted(ks) {
							switch {
							case k%4 == 0:
								present++
							case k%2 == 1:
								odd++
							}
						}
						if got := s.ContainsAll(ks); got < present || got > present+odd {
							errs <- fmt.Errorf("ContainsAll = %d, want within [%d, %d]", got, present, present+odd)
							return
						}
					}
				}(r)
			}
			readers.Wait()
			close(stop)
			churn.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			checkTowerShapes(t, s)
		})
	}
}

// TestVBBatchLaneAllocs pins the lane state on the stack: on warmed
// sets, a 64-key ContainsAll allocates nothing in either mode, and an
// arena set's InsertAll then RemoveAll of the same keys recycles every
// tower it needs. (GC mode allocates each inserted tower on the heap.)
// sync.Pool drops buffers at random under the race detector, so the
// check runs without it.
func TestVBBatchLaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	const span, batchSize = 1 << 14, 64
	for _, mode := range vbModes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			var keys []int64
			for k := int64(0); k < span; k += 2 {
				keys = append(keys, k)
			}
			s.Load(keys)
			ks := make([]int64, batchSize)
			rng := rand.New(rand.NewSource(1))
			fill := func() {
				lo := rng.Int63n(span - 4*batchSize)
				for i := range ks {
					ks[i] = lo + rng.Int63n(4*batchSize)
				}
			}
			if n := testing.AllocsPerRun(500, func() { fill(); s.ContainsAll(ks) }); n != 0 {
				t.Errorf("ContainsAll of %d keys allocates %.2f per call, want 0", batchSize, n)
			}
			if _, ok := s.ArenaStats(); !ok {
				return
			}
			churn := func() {
				fill()
				for i := range ks {
					ks[i] |= 1 // absent keys: every insert needs a tower
				}
				s.InsertAll(ks)
				s.RemoveAll(ks)
			}
			for i := 0; i < 200; i++ {
				churn()
			}
			if n := testing.AllocsPerRun(500, churn); n != 0 {
				t.Errorf("arena InsertAll+RemoveAll of %d keys allocates %.2f per round, want 0", batchSize, n)
			}
		})
	}
}
