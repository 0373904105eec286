package harris

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"listset/internal/obs"
)

// --- AMR variant -----------------------------------------------------

func TestAMRLogicalDeletionIsLinearizationPoint(t *testing.T) {
	s := NewAMR()
	s.Insert(10)
	s.Insert(20)
	_, _, n10 := s.find(10, &obs.Escalator{})
	if n10.val != 10 {
		t.Fatalf("find(10) landed on %d", n10.val)
	}
	// Mark n10 by hand (logical deletion) without unlinking.
	cell := n10.cell.Load()
	if !n10.cell.CompareAndSwap(cell, &amrCell{next: cell.next, marked: true}) {
		t.Fatal("manual marking CAS failed")
	}
	// Contains must already report absence.
	if s.Contains(10) {
		t.Fatal("Contains(10) = true for logically deleted node")
	}
	// A traversing update helps: after find, 10 is physically gone.
	_, _, curr := s.find(15, &obs.Escalator{})
	if curr.val != 20 {
		t.Fatalf("find after helping landed on %d, want 20", curr.val)
	}
	if got := s.head.cell.Load().next.val; got != 20 {
		t.Fatalf("head successor after helping = %d, want 20", got)
	}
}

func TestAMRInsertAfterMarkedNeighbour(t *testing.T) {
	s := NewAMR()
	s.Insert(10)
	s.Insert(20)
	s.Remove(10)
	if !s.Insert(10) {
		t.Fatal("reinsert after remove failed")
	}
	if !s.Contains(10) || !s.Contains(20) {
		t.Fatal("membership wrong after reinsert")
	}
}

func TestAMRRemoveCompetition(t *testing.T) {
	s := NewAMR()
	s.Insert(10)
	// Two sequential removes: exactly one wins.
	if !s.Remove(10) {
		t.Fatal("first Remove(10) failed")
	}
	if s.Remove(10) {
		t.Fatal("second Remove(10) succeeded")
	}
}

// --- Marker variant ----------------------------------------------------

func TestMarkerDeletionInstallsMarker(t *testing.T) {
	s := NewMarker()
	s.Insert(10)
	s.Insert(20)
	_, n10 := s.findFrom(s.head, 10, &obs.Escalator{})
	if !s.Remove(10) {
		t.Fatal("Remove(10) failed")
	}
	// n10 is unlinked, but its structure shows the marker protocol: its
	// successor is a marker whose successor is the old successor.
	m := n10.next.Load()
	if !m.marker {
		t.Fatal("removed node's successor is not a marker")
	}
	if m.next.Load().val != 20 {
		t.Fatalf("marker's successor = %d, want 20", m.next.Load().val)
	}
	if isDeleted(m.next.Load()) {
		t.Fatal("live successor wrongly reported deleted")
	}
}

func TestMarkerContainsSkipsMarkers(t *testing.T) {
	s := NewMarker()
	for _, v := range []int64{10, 20, 30} {
		s.Insert(v)
	}
	// Logically delete 20 by hand, leaving it linked: readers must skip
	// through the marker and still find 30, and report 20 absent.
	_, n20 := s.findFrom(s.head, 20, &obs.Escalator{})
	succ := n20.next.Load()
	m := &markNode{val: 20, marker: true}
	m.next.Store(succ)
	if !n20.next.CompareAndSwap(succ, m) {
		t.Fatal("manual marker CAS failed")
	}
	if s.Contains(20) {
		t.Fatal("Contains(20) = true for marked-but-linked node")
	}
	if !s.Contains(30) {
		t.Fatal("Contains(30) = false while traversing through a marker")
	}
	if !s.Contains(10) {
		t.Fatal("Contains(10) = false")
	}
}

func TestMarkerFindUnlinksDeleted(t *testing.T) {
	s := NewMarker()
	for _, v := range []int64{10, 20, 30} {
		s.Insert(v)
	}
	_, n20 := s.findFrom(s.head, 20, &obs.Escalator{})
	succ := n20.next.Load()
	m := &markNode{val: 20, marker: true}
	m.next.Store(succ)
	if !n20.next.CompareAndSwap(succ, m) {
		t.Fatal("manual marker CAS failed")
	}
	// findFrom for any key must snip 20 on its way past.
	prev, curr := s.findFrom(s.head, 30, &obs.Escalator{})
	if prev.val != 10 || curr.val != 30 {
		t.Fatalf("findFrom(head, 30) = (%d, %d), want (10, 30)", prev.val, curr.val)
	}
	if got := s.Snapshot(); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("Snapshot = %v, want [10 30]", got)
	}
}

func TestMarkerReinsertCycle(t *testing.T) {
	s := NewMarker()
	for i := 0; i < 100; i++ {
		if !s.Insert(7) {
			t.Fatalf("cycle %d: Insert failed", i)
		}
		if !s.Contains(7) {
			t.Fatalf("cycle %d: Contains false after insert", i)
		}
		if !s.Remove(7) {
			t.Fatalf("cycle %d: Remove failed", i)
		}
		if s.Contains(7) {
			t.Fatalf("cycle %d: Contains true after remove", i)
		}
	}
}

// --- shared property & stress tests ------------------------------------

type setLike interface {
	Insert(int64) bool
	Remove(int64) bool
	Contains(int64) bool
	Len() int
	Snapshot() []int64
}

func quickVsMap(t *testing.T, mk func() setLike) {
	t.Helper()
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(prog []op) bool {
		s := mk()
		oracle := map[int64]bool{}
		for _, o := range prog {
			k := int64(o.Key % 16)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAMRVsMap(t *testing.T)    { quickVsMap(t, func() setLike { return NewAMR() }) }
func TestQuickMarkerVsMap(t *testing.T) { quickVsMap(t, func() setLike { return NewMarker() }) }

func stress(t *testing.T, s setLike) {
	t.Helper()
	const keyRange = 24
	iterations := 20000
	if testing.Short() {
		iterations = 2000
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iterations; i++ {
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
			t.Fatalf("snapshot value %d not reported by Contains", v)
		}
	}
}

func TestConcurrentSmokeAMR(t *testing.T)    { stress(t, NewAMR()) }
func TestConcurrentSmokeMarker(t *testing.T) { stress(t, NewMarker()) }

// TestMarkerQuiescentStructure verifies the structural invariants after
// churn: no reachable markers dangling mid-chain without their victim,
// strictly sorted live chain.
func TestMarkerQuiescentStructure(t *testing.T) {
	s := NewMarker()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				k := int64(rng.Intn(16))
				if rng.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Remove(k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Walk the raw chain: every marker must directly follow its victim,
	// and stripping deleted (victim, marker) pairs yields a sorted chain.
	var live []int64
	curr := s.head.next.Load()
	for curr != s.tail {
		if curr.marker {
			t.Fatal("orphan marker encountered as a chain element")
		}
		succ := curr.next.Load()
		if succ.marker {
			// curr is deleted; skip the pair.
			curr = succ.next.Load()
			continue
		}
		live = append(live, curr.val)
		curr = succ
	}
	for i := 1; i < len(live); i++ {
		if live[i-1] >= live[i] {
			t.Fatalf("live chain not strictly ascending: %v", live)
		}
	}
}
