package skiplist

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"listset/internal/failpoint"
)

// Property tests for the skip lists' probabilistic and reclamation
// machinery: randomHeight must be geometric(1/2) from any seed state
// (the O(log n) expected-cost argument depends on it, not on one lucky
// seed), and the tower arena must recycle without ever recycling more
// than it retired.

// TestRandomHeightGeometricQuick is a quick.Check property: from an
// arbitrary seed position, a block of randomHeight draws looks
// geometric with ratio 1/2 — each level's survivor count is about half
// the previous level's, heights stay within [1, levels], and the cap
// level absorbs the tail. Checked for both skip lists so neither can
// drift to a different ratio (which would silently change the
// height-class arena's size-class economics).
func TestRandomHeightGeometricQuick(t *testing.T) {
	const draws = 1 << 13
	check := func(name string, levels int, draw func() int) bool {
		counts := make([]int, levels+2)
		for i := 0; i < draws; i++ {
			h := draw()
			if h < 1 || h > levels {
				t.Errorf("%s: randomHeight = %d outside [1, %d]", name, h, levels)
				return false
			}
			counts[h]++
		}
		// Survivors at height >= h halve per level while the sample is
		// large enough for the tolerance to be meaningful.
		ge := draws
		for h := 1; h <= 6 && ge >= 512; h++ {
			next := ge - counts[h]
			if f := float64(next) / float64(ge); f < 0.38 || f > 0.62 {
				t.Errorf("%s: P(height > %d | height >= %d) = %.3f, want ~0.5", name, h, h, f)
				return false
			}
			ge = next
		}
		return true
	}
	prop := func(seed uint64) bool {
		vb := NewVB()
		vb.seed.Store(seed)
		lz := NewLazy()
		lz.seed.Store(seed)
		return check("VB", vb.levels, vb.randomHeight) &&
			check("Lazy", lz.levels, lz.randomHeight)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRandomHeightHonorsLevels pins the configurable cap: a list built
// with fewer levels never draws a taller tower, so raising
// DefaultLevels past its ~2^18 ≈ 262k-key sizing cannot leak tall
// towers into small-level instances sharing the same array capacity.
func TestRandomHeightHonorsLevels(t *testing.T) {
	for _, levels := range []int{1, 2, 4, DefaultLevels, maxLevel} {
		s := NewVBLevels(levels)
		if s.Levels() != levels {
			t.Fatalf("Levels() = %d, want %d", s.Levels(), levels)
		}
		for i := 0; i < 20000; i++ {
			if h := s.randomHeight(); h < 1 || h > levels {
				t.Fatalf("levels=%d: randomHeight = %d", levels, h)
			}
		}
	}
}

// TestVBArenaChurnRecycles drives the arena-backed skip list through
// enough insert/remove churn — concurrent, then quiescent — that
// retired towers pass their grace period and come back through the
// height-classed free lists, then checks the reclamation ledger
// (Recycled <= Retired always; the quiescent phase must actually
// retire) and the structure invariants after all that recycling.
func TestVBArenaChurnRecycles(t *testing.T) {
	s := NewVBArena()
	const keyRange = 128
	var wg sync.WaitGroup
	workers := 6
	perWorker := 8000
	if testing.Short() {
		workers, perWorker = 4, 2000
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
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
		}(int64(g) + 41)
	}
	wg.Wait()

	// Quiescent churn: single-threaded insert/remove rounds unlink every
	// tower fully, so retirement is guaranteed to fire, and the repeated
	// rounds force recycled towers back into service at fresh heights.
	for round := 0; round < 8; round++ {
		for k := int64(0); k < keyRange; k++ {
			s.Insert(k)
		}
		for k := int64(0); k < keyRange; k++ {
			s.Remove(k)
		}
	}
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("NewVBArena reports no arena")
	}
	if st.Retired == 0 {
		t.Fatal("quiescent churn retired no towers; the linked-mask retire protocol never fired")
	}
	if st.Recycled > st.Retired {
		t.Fatalf("Recycled (%d) > Retired (%d): a tower was freed twice", st.Recycled, st.Retired)
	}
	if st.Recycled == 0 {
		t.Fatalf("churn recycled no towers: %+v", st)
	}

	// The survivor set must still be a well-formed skip list.
	for k := int64(0); k < keyRange; k++ {
		if s.Contains(k) {
			t.Fatalf("key %d survived a full remove round", k)
		}
		s.Insert(k)
	}
	snap := s.Snapshot()
	if len(snap) != keyRange {
		t.Fatalf("Snapshot has %d keys, want %d", len(snap), keyRange)
	}
	for i := range snap {
		if snap[i] != int64(i) {
			t.Fatalf("Snapshot[%d] = %d after recycling churn", i, snap[i])
		}
	}
}

// TestVBArenaBatchChurn runs the finger-seeded batch passes over the
// arena-backed variant: recycled towers must be just as adoptable as
// fresh ones, and the ledger stays consistent.
func TestVBArenaBatchChurn(t *testing.T) {
	s := NewVBArena()
	const n = 256
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		if got := s.InsertAll(keys); got != n {
			t.Fatalf("round %d: InsertAll = %d, want %d", round, got, n)
		}
		if got := s.ContainsAll(keys); got != n {
			t.Fatalf("round %d: ContainsAll = %d, want %d", round, got, n)
		}
		scan := s.RangeScan(0, n)
		if len(scan) != n {
			t.Fatalf("round %d: RangeScan returned %d keys, want %d", round, len(scan), n)
		}
		if got := s.RemoveAll(keys); got != n {
			t.Fatalf("round %d: RemoveAll = %d, want %d", round, got, n)
		}
		if s.Len() != 0 {
			t.Fatalf("round %d: Len = %d after RemoveAll", round, s.Len())
		}
	}
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("NewVBArena reports no arena")
	}
	if st.Recycled > st.Retired {
		t.Fatalf("Recycled (%d) > Retired (%d)", st.Recycled, st.Retired)
	}
	if st.Retired == 0 {
		t.Fatal("batch churn retired nothing")
	}
}

// TestGivenUpIndexLevelsParkOnTail pins the stale-pointer invariant
// behind the arena's safety argument: when linkIndex gives up on an
// index level (here: the link site forced to fail on every hit), the
// live tower's pointer at that level must be parked on tail, never
// left frozen at the speculative succ from insert time. Descents read
// at(j) for every level below the adoption level whether or not it
// was linked, and a frozen succ could be unlinked, retired and — with
// an arena attached — recycled into a value-order-breaking edge. The
// arena variant first churns the keys through insert/remove rounds,
// so the walked towers are recycled ones reused at new heights.
func TestGivenUpIndexLevelsParkOnTail(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: the index link site cannot fail")
	}
	for name, mk := range map[string]func() *VB{"gc": NewVB, "arena": NewVBArena} {
		t.Run(name, func(t *testing.T) {
			s := mk()
			fps := failpoint.NewSet()
			if err := fps.Arm(failpoint.Scenario{
				Site:        failpoint.SiteSkipIndexLink,
				Action:      failpoint.ActFail,
				Probability: 1,
			}); err != nil {
				t.Fatal(err)
			}
			s.SetFailpoints(fps)
			const n = 512
			if _, ok := s.ArenaStats(); ok {
				for round := 0; round < 4; round++ {
					for v := int64(0); v < n; v++ {
						s.Insert(v)
					}
					for v := int64(0); v < n; v++ {
						s.Remove(v)
					}
				}
				if st, _ := s.ArenaStats(); st.Recycled == 0 {
					t.Fatalf("churn recycled no towers: %+v", st)
				}
			}
			for v := int64(0); v < n; v++ {
				if !s.Insert(v) {
					t.Fatalf("Insert(%d) = false on empty slot", v)
				}
			}
			checkTowerShapes(t, s)
			tall := 0
			for curr := s.head.next0.Load(); curr != s.tail; curr = curr.next0.Load() {
				if got := curr.state.Load() & stLinked; got != 1 {
					t.Fatalf("tower %d linked mask = %b, want exactly bit 0 with the index link site failing", curr.val, got)
				}
				for l := 1; l < curr.height(); l++ {
					tall++
					if got := curr.at(l).Load(); got != s.tail {
						t.Fatalf("given-up level %d of tower %d holds %d, want tail", l, curr.val, got.val)
					}
				}
			}
			if tall == 0 {
				t.Fatalf("no tower drew height > 1 in %d inserts; the invariant was never exercised", n)
			}
		})
	}
}
