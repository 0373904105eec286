package lazy

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestValidateSemantics(t *testing.T) {
	l := New()
	l.Insert(10)
	prev, curr := l.findFrom(l.head, 10)
	if !validate(prev, curr) {
		t.Fatal("fresh window failed validation")
	}
	// Window broken by an intervening insert: prev.next != curr.
	l.Insert(5)
	if validate(prev, curr) {
		t.Fatal("validation passed though a node was inserted into the window")
	}
	// Marked curr fails validation even with adjacency restored.
	prev2, curr2 := l.findFrom(l.head, 10)
	l.Remove(10)
	if !curr2.marked.Load() {
		t.Fatal("removed node not marked")
	}
	if validate(prev2, curr2) {
		t.Fatal("validation passed on marked curr")
	}
}

func TestLogicalThenPhysicalDeletion(t *testing.T) {
	l := New()
	l.Insert(10)
	l.Insert(20)
	_, n10 := l.findFrom(l.head, 10)
	if !l.Remove(10) {
		t.Fatal("Remove(10) failed")
	}
	if !n10.marked.Load() {
		t.Fatal("node not logically deleted")
	}
	// Physically unlinked: head's successor skips to 20.
	if got := l.head.next.Load().val; got != 20 {
		t.Fatalf("head.next.val = %d, want 20", got)
	}
	// The unlinked node still points into the list (readers parked on it
	// can finish their traversal).
	if got := n10.next.Load().val; got != 20 {
		t.Fatalf("unlinked node's next.val = %d, want 20", got)
	}
}

func TestContainsChecksMark(t *testing.T) {
	l := New()
	l.Insert(10)
	_, n10 := l.findFrom(l.head, 10)
	// Simulate the window where a remover has marked but not yet
	// unlinked: contains must already report absence (the mark is the
	// linearization point of remove in the Lazy list).
	n10.marked.Store(true)
	if l.Contains(10) {
		t.Fatal("Contains(10) = true for marked-but-linked node")
	}
	n10.marked.Store(false)
	if !l.Contains(10) {
		t.Fatal("Contains(10) = false after unmarking")
	}
}

func TestFindWindow(t *testing.T) {
	l := New()
	for _, v := range []int64{10, 20, 30} {
		l.Insert(v)
	}
	cases := []struct {
		v          int64
		prev, curr int64
	}{
		{5, MinSentinel, 10},
		{10, MinSentinel, 10},
		{15, 10, 20},
		{30, 20, 30},
		{35, 30, MaxSentinel},
	}
	for _, c := range cases {
		p, cu := l.findFrom(l.head, c.v)
		if p.val != c.prev || cu.val != c.curr {
			t.Fatalf("findFrom(head, %d) = (%d, %d), want (%d, %d)", c.v, p.val, cu.val, c.prev, c.curr)
		}
	}
}

func TestQuickEquivalentToMap(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(prog []op) bool {
		l := New()
		oracle := map[int64]bool{}
		for _, o := range prog {
			k := int64(o.Key % 16)
			switch o.Kind % 3 {
			case 0:
				if l.Insert(k) != !oracle[k] {
					return false
				}
				oracle[k] = true
			case 1:
				if l.Remove(k) != oracle[k] {
					return false
				}
				delete(oracle, k)
			default:
				if l.Contains(k) != oracle[k] {
					return false
				}
			}
		}
		return l.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSmokeLazy(t *testing.T) {
	l := New()
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
					l.Insert(k)
				case 1:
					l.Remove(k)
				default:
					l.Contains(k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Quiescent invariants: reachable chain strictly sorted, unmarked,
	// all locks free.
	prev := l.head
	for curr := l.head.next.Load(); ; curr = curr.next.Load() {
		if curr.marked.Load() {
			t.Fatal("reachable node marked at quiescence")
		}
		if curr.val <= prev.val {
			t.Fatalf("order violation: %d after %d", curr.val, prev.val)
		}
		if curr.val == MaxSentinel {
			break
		}
		if curr.lock.Locked() {
			t.Fatal("reachable node lock held at quiescence")
		}
		prev = curr
	}
}
