package skiplist

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type set interface {
	Insert(int64) bool
	Remove(int64) bool
	Contains(int64) bool
	Len() int
	Snapshot() []int64
}

func both(t *testing.T, f func(t *testing.T, name string, s set)) {
	t.Helper()
	t.Run("vb", func(t *testing.T) { f(t, "vb", NewVB()) })
	t.Run("lazy", func(t *testing.T) { f(t, "lazy", NewLazy()) })
}

func TestBasics(t *testing.T) {
	both(t, func(t *testing.T, _ string, s set) {
		if !s.Insert(5) || s.Insert(5) {
			t.Fatal("insert semantics wrong")
		}
		if !s.Contains(5) || s.Contains(4) {
			t.Fatal("contains semantics wrong")
		}
		if !s.Remove(5) || s.Remove(5) || s.Contains(5) {
			t.Fatal("remove semantics wrong")
		}
	})
}

func TestSortedSnapshot(t *testing.T) {
	both(t, func(t *testing.T, _ string, s set) {
		vals := []int64{9, 1, 7, 3, 5, -2, 100, 42}
		for _, v := range vals {
			s.Insert(v)
		}
		snap := s.Snapshot()
		if len(snap) != len(vals) {
			t.Fatalf("Snapshot = %v", snap)
		}
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				t.Fatalf("Snapshot not strictly ascending: %v", snap)
			}
		}
		if s.Len() != len(vals) {
			t.Fatalf("Len = %d", s.Len())
		}
	})
}

func TestLargeSequential(t *testing.T) {
	both(t, func(t *testing.T, _ string, s set) {
		const n = 5000
		perm := rand.New(rand.NewSource(3)).Perm(n)
		for _, v := range perm {
			if !s.Insert(int64(v)) {
				t.Fatalf("Insert(%d) failed", v)
			}
		}
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		for v := int64(0); v < n; v++ {
			if !s.Contains(v) {
				t.Fatalf("Contains(%d) = false", v)
			}
		}
		for _, v := range perm {
			if v%2 == 0 {
				if !s.Remove(int64(v)) {
					t.Fatalf("Remove(%d) failed", v)
				}
			}
		}
		if s.Len() != n/2 {
			t.Fatalf("Len after removals = %d, want %d", s.Len(), n/2)
		}
		for v := int64(0); v < n; v++ {
			if s.Contains(v) != (v%2 == 1) {
				t.Fatalf("Contains(%d) = %v", v, s.Contains(v))
			}
		}
	})
}

func TestRandomHeightDistribution(t *testing.T) {
	s := NewVB()
	counts := make([]int, maxLevel+1)
	const draws = 200000
	for i := 0; i < draws; i++ {
		h := s.randomHeight()
		if h < 1 || h > maxLevel {
			t.Fatalf("height %d out of [1, %d]", h, maxLevel)
		}
		counts[h]++
	}
	// Geometric(1/2): height 1 about half, each next about halving.
	if counts[1] < draws*2/5 || counts[1] > draws*3/5 {
		t.Fatalf("height-1 frequency %d of %d implausible", counts[1], draws)
	}
	if counts[2] < counts[1]/4 || counts[2] > counts[1] {
		t.Fatalf("height-2 frequency %d vs height-1 %d implausible", counts[2], counts[1])
	}
	if counts[maxLevel] == 0 {
		t.Log("note: no max-height tower in 200k draws (possible but unusual)")
	}
}

func TestVBIndexSweep(t *testing.T) {
	s := NewVB()
	// Insert enough values that some towers exceed level 1.
	for v := int64(0); v < 200; v++ {
		s.Insert(v)
	}
	tall := 0
	for curr := s.head.next0.Load(); curr.val != MaxSentinel; curr = curr.next0.Load() {
		if curr.height() > 1 {
			tall++
		}
	}
	if tall == 0 {
		t.Fatal("no tall towers among 200 inserts — index never exercised")
	}
	// Remove everything; afterwards no level may retain any tower.
	for v := int64(0); v < 200; v++ {
		if !s.Remove(v) {
			t.Fatalf("Remove(%d) failed", v)
		}
	}
	for l := 0; l < maxLevel; l++ {
		if got := s.head.at(l).Load(); got != s.tail {
			t.Fatalf("level %d retains tower %d after all removals", l, got.val)
		}
	}
}

func TestVBFindWindows(t *testing.T) {
	s := NewVB()
	for _, v := range []int64{10, 20, 30} {
		s.Insert(v)
	}
	var preds, succs [maxLevel]*vbNode
	s.findFrom(s.arena.Pin(), 20, new([maxLevel]*vbNode), s.levels, &preds, &succs)
	if preds[0].val >= 20 || succs[0].val != 20 {
		t.Fatalf("level-0 window = (%d, %d)", preds[0].val, succs[0].val)
	}
	for l := 0; l < s.levels; l++ {
		if preds[l].val >= 20 {
			t.Fatalf("preds[%d].val = %d, want < 20", l, preds[l].val)
		}
		if succs[l].val < 20 {
			t.Fatalf("succs[%d].val = %d, want >= 20", l, succs[l].val)
		}
	}
}

func TestLazyFullyLinkedGatesContains(t *testing.T) {
	s := NewLazy()
	s.Insert(10)
	_, succs, lFound := s.findFrom(10, new([maxLevel]*lazyNode))
	if lFound == -1 {
		t.Fatal("inserted tower not found")
	}
	n := succs[lFound]
	// Simulate a mid-insert tower: clear fullyLinked.
	n.fullyLinked.Store(false)
	if s.Contains(10) {
		t.Fatal("Contains trusted a not-fully-linked tower")
	}
	n.fullyLinked.Store(true)
	if !s.Contains(10) {
		t.Fatal("Contains false after restoring fullyLinked")
	}
}

func TestQuickVsMap(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	mkProg := func(mk func() set) func(prog []op) bool {
		return func(prog []op) bool {
			s := mk()
			oracle := map[int64]bool{}
			for _, o := range prog {
				k := int64(o.Key % 32)
				switch o.Kind % 3 {
				case 0:
					if s.Insert(k) != !oracle[k] {
						return false
					}
					oracle[k] = true
				case 1:
					if s.Remove(k) != oracle[k] {
						return false
					}
					delete(oracle, k)
				default:
					if s.Contains(k) != oracle[k] {
						return false
					}
				}
			}
			return s.Len() == len(oracle)
		}
	}
	if err := quick.Check(mkProg(func() set { return NewVB() }), &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("vb: %v", err)
	}
	if err := quick.Check(mkProg(func() set { return NewLazy() }), &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("lazy: %v", err)
	}
}

func TestConcurrentSmoke(t *testing.T) {
	both(t, func(t *testing.T, _ string, s set) {
		const keyRange = 64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 15000; i++ {
					k := int64(rng.Intn(keyRange))
					switch rng.Intn(3) {
					case 0:
						s.Insert(k)
					case 1:
						s.Remove(k)
					default:
						s.Contains(k)
					}
				}
			}(int64(g))
		}
		wg.Wait()
		snap := s.Snapshot()
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				t.Fatalf("Snapshot not strictly ascending: %v", snap)
			}
		}
		for _, v := range snap {
			if !s.Contains(v) {
				t.Fatalf("snapshot value %d not found by Contains", v)
			}
		}
	})
}

// TestVBLevelInvariants checks the index structure at quiescence after
// concurrent churn: every level sorted, no deleted or retired tower
// linked at any level, every level-l tower present at level 0, and
// no tower linked at or above its height. The arena variant's
// churn recycles towers into new lives at new heights within their
// class.
func TestVBLevelInvariants(t *testing.T) {
	for name, mk := range map[string]func() *VB{"gc": NewVB, "arena": NewVBArena} {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 10000; i++ {
						k := int64(rng.Intn(32))
						if rng.Intn(2) == 0 {
							s.Insert(k)
						} else {
							s.Remove(k)
						}
					}
				}(int64(g))
			}
			wg.Wait()
			if st, ok := s.ArenaStats(); ok && st.Recycled == 0 {
				t.Fatalf("arena churn recycled no towers: %+v", st)
			}
			checkLevels(t, s)
		})
	}
}

// checkLevels runs the quiescent cleanup and walks every level. The
// index is best-effort: a concurrent-miss in sweep can leave a deleted
// tower linked at an upper level, to be collected by later traversals.
// Run the quiescent cleanup that any traversal performs; findFrom(k)
// unlinks only towers it passes (val < k), so the keys run one past
// the largest.
func checkLevels(t *testing.T, s *VB) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for k := int64(0); k <= 32; k++ {
			g := s.arena.Pin()
			s.findFrom(g, k, new([maxLevel]*vbNode), s.levels, new([maxLevel]*vbNode), new([maxLevel]*vbNode))
			g.Unpin()
		}
	}
	checkTowerShapes(t, s)
	level0 := map[*vbNode]bool{}
	for curr := s.head.next0.Load(); curr != s.tail; curr = curr.next0.Load() {
		if curr.isDeleted() {
			t.Fatal("deleted tower reachable at level 0 at quiescence")
		}
		level0[curr] = true
	}
	for l := 1; l < maxLevel; l++ {
		var last int64 = MinSentinel
		for curr := s.head.at(l).Load(); curr != s.tail; curr = curr.at(l).Load() {
			if st := curr.state.Load(); st&(stDeleted|stRetired) != 0 {
				t.Fatalf("level-%d tower %d has state %#x at quiescence: deleted or retired", l, curr.val, st)
			}
			if !level0[curr] {
				t.Fatalf("level-%d tower %d missing from level 0", l, curr.val)
			}
			if curr.val <= last {
				t.Fatalf("level-%d order violation: %d after %d", l, curr.val, last)
			}
			last = curr.val
		}
	}
}

// TestVBInsertWaitsOutMarkedTower freezes a remover between its mark
// and its level-0 unlink store (both locks held, as in Remove). v is
// already absent — Contains reports so — so neither Insert nor
// InsertAll may report it present off the still-linked marked tower:
// each must wait for the unlink and then insert.
func TestVBInsertWaitsOutMarkedTower(t *testing.T) {
	for name, insert := range map[string]func(s *VB) bool{
		"Insert":    func(s *VB) bool { return s.Insert(5) },
		"InsertAll": func(s *VB) bool { return s.InsertAll([]int64{5}) == 1 },
	} {
		t.Run(name, func(t *testing.T) {
			s := NewVB()
			s.Insert(5)
			pred, x := s.head, s.head.next0.Load()
			pred.lock.Lock()
			x.lock.Lock()
			x.markDeleted()
			if s.Contains(5) {
				t.Fatal("Contains(5) = true on a marked tower")
			}
			done := make(chan bool)
			go func() { done <- insert(s) }()
			select {
			case got := <-done:
				t.Fatalf("%s(5) returned %v before the marked tower was unlinked", name, got)
			case <-time.After(20 * time.Millisecond):
			}
			pred.next0.Store(x.next0.Load())
			x.lock.Unlock()
			pred.lock.Unlock()
			if !<-done {
				t.Fatalf("%s(5) = false after 5 was removed", name)
			}
		})
	}
}
