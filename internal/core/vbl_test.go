package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestLockNextAtValidatesIdentity(t *testing.T) {
	s := New()
	s.Insert(10)
	prev, curr := s.traverse(10, s.head)
	if prev != s.head || curr.val != 10 {
		t.Fatalf("traverse(10) window wrong: prev.val=%d curr.val=%d", prev.val, curr.val)
	}
	if !prev.lockNextAt(curr, true, nil) {
		t.Fatal("lockNextAt with valid window failed")
	}
	if !prev.lock.Locked() {
		t.Fatal("lock not held after successful lockNextAt")
	}
	prev.lock.Unlock()

	// Stale successor: validation must fail and leave the lock free.
	if prev.lockNextAt(s.tail, true, nil) {
		t.Fatal("lockNextAt succeeded with stale successor")
	}
	if prev.lock.Locked() {
		t.Fatal("lock left held after failed lockNextAt")
	}
}

func TestLockNextAtRejectsDeletedNode(t *testing.T) {
	s := New()
	s.Insert(10)
	s.Insert(20)
	_, n10 := s.traverse(10, s.head)
	succ := n10.next.Load()
	s.Remove(10) // marks n10 deleted and unlinks it
	if !n10.deleted.Load() {
		t.Fatal("removed node not marked deleted")
	}
	if n10.lockNextAt(succ, true, nil) {
		t.Fatal("lockNextAt succeeded on a logically deleted node")
	}
	if n10.lock.Locked() {
		t.Fatal("lock left held after failed lockNextAt on deleted node")
	}
}

// TestLockNextAtValueAcceptsReincarnatedSuccessor is the heart of
// value-awareness: after the successor holding v is removed and a NEW
// node holding v is inserted, identity validation would fail but value
// validation must succeed.
func TestLockNextAtValueAcceptsReincarnatedSuccessor(t *testing.T) {
	s := New()
	s.Insert(10)
	prev, oldCurr := s.traverse(10, s.head)
	// Reincarnate 10: remove the node, insert a fresh one.
	s.Remove(10)
	s.Insert(10)
	_, newCurr := s.traverse(10, s.head)
	if oldCurr == newCurr {
		t.Fatal("expected a fresh node after remove+insert")
	}
	// Identity-based validation against the stale node fails...
	if prev.lockNextAt(oldCurr, true, nil) {
		t.Fatal("lockNextAt accepted a stale successor identity")
	}
	// ...but value-based validation succeeds: some node with value 10
	// still follows prev, which is all the set semantics care about.
	if !prev.lockNextAtValue(10, true, nil) {
		t.Fatal("lockNextAtValue rejected a reincarnated successor")
	}
	prev.lock.Unlock()
}

func TestLockNextAtValueRejectsChangedValue(t *testing.T) {
	s := New()
	s.Insert(10)
	prev, _ := s.traverse(10, s.head)
	s.Remove(10)
	// prev(head)'s successor is now tail (+inf), not 10.
	if prev.lockNextAtValue(10, true, nil) {
		t.Fatal("lockNextAtValue succeeded though the successor value changed")
	}
	if prev.lock.Locked() {
		t.Fatal("lock left held after failed lockNextAtValue")
	}
	// An intervening insert of a different value must also fail it.
	s.Insert(7)
	if prev.lockNextAtValue(10, true, nil) {
		t.Fatal("lockNextAtValue(10) succeeded though successor holds 7")
	}
}

func TestTraverseRestartsFromHeadWhenPrevDeleted(t *testing.T) {
	s := New()
	s.Insert(5)
	s.Insert(10)
	prev5, _ := s.traverse(10, s.head) // prev5 holds 5
	if prev5.val != 5 {
		t.Fatalf("expected prev.val=5, got %d", prev5.val)
	}
	s.Remove(5)
	// prev5 is now deleted; traversal must fall back to head and still
	// find 10.
	p, c := s.traverse(10, prev5)
	if c.val != 10 {
		t.Fatalf("traverse from deleted prev found curr.val=%d, want 10", c.val)
	}
	if p == prev5 {
		t.Fatal("traverse kept a deleted node as prev")
	}
}

func TestTraverseFromLaterPrevSkipsPrefix(t *testing.T) {
	s := New()
	for _, v := range []int64{10, 20, 30, 40} {
		s.Insert(v)
	}
	p20, _ := s.traverse(30, s.head)
	if p20.val != 20 {
		t.Fatalf("prev for 30 should hold 20, got %d", p20.val)
	}
	// Restarting the traversal from node 20 for a larger key works
	// without visiting the prefix.
	p, c := s.traverse(40, p20)
	if p.val != 30 || c.val != 40 {
		t.Fatalf("traverse(40, n20) = (%d, %d), want (30, 40)", p.val, c.val)
	}
}

func TestContainsSeesLogicallyDeletedWindowConsistently(t *testing.T) {
	// A reader standing on an unlinked node must still terminate and
	// give an answer consistent with some linearization. We simulate the
	// paused reader by capturing the node before removal.
	s := New()
	for _, v := range []int64{10, 20, 30} {
		s.Insert(v)
	}
	_, n20 := s.traverse(20, s.head)
	s.Remove(20)
	// n20 is unlinked but its next pointer still leads back into the
	// list, so traversal from it reaches 30.
	curr := n20
	for curr.val < 30 {
		curr = curr.next.Load()
	}
	if curr.val != 30 {
		t.Fatalf("traversal from unlinked node reached %d, want 30", curr.val)
	}
}

func TestRemoveUnlinksExactlyOneNode(t *testing.T) {
	s := New()
	for v := int64(0); v < 10; v++ {
		s.Insert(v)
	}
	if !s.Remove(4) {
		t.Fatal("Remove(4) failed")
	}
	snap := s.Snapshot()
	if len(snap) != 9 {
		t.Fatalf("Snapshot length = %d, want 9", len(snap))
	}
	for _, v := range snap {
		if v == 4 {
			t.Fatal("removed value still reachable")
		}
	}
}

func TestInsertAtBothEnds(t *testing.T) {
	s := New()
	s.Insert(0)
	if !s.Insert(MinSentinel + 1) {
		t.Fatal("Insert just above -inf failed")
	}
	if !s.Insert(MaxSentinel - 1) {
		t.Fatal("Insert just below +inf failed")
	}
	snap := s.Snapshot()
	if len(snap) != 3 || snap[0] != MinSentinel+1 || snap[2] != MaxSentinel-1 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

// TestQuickEquivalentToMap: sequential random programs over a small key
// universe behave exactly like a map.
func TestQuickEquivalentToMap(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(prog []op) bool {
		s := New()
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

// TestConcurrentSmokeVBL is a package-local stress of the white-box kind:
// it checks the deleted/next invariants of surviving nodes afterwards.
func TestConcurrentSmokeVBL(t *testing.T) {
	s := New()
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
	// Invariants at quiescence: the reachable chain is strictly sorted,
	// contains no deleted nodes, and ends at tail.
	prev := s.head
	for curr := s.head.next.Load(); ; curr = curr.next.Load() {
		if curr.deleted.Load() {
			t.Fatal("reachable node is marked deleted at quiescence")
		}
		if curr.val <= prev.val {
			t.Fatalf("order violation: %d after %d", curr.val, prev.val)
		}
		if curr == s.tail {
			break
		}
		if curr.lock.Locked() {
			t.Fatal("reachable node lock still held at quiescence")
		}
		prev = curr
	}
}
