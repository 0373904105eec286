package skiplist

import (
	"fmt"
	"sync"
	"testing"
)

// TestTowerStateBits races every writer of a tower's state word: one
// goroutine per level toggles its own linked bit, checking after each
// step that the step stuck and that deleted and idxDone, once seen,
// stay set, while two others mark the tower deleted and set idxDone
// over and over. The OR and AND-NOT CAS loops must lose no bit, and
// the final word is exact: the height unchanged, even levels linked,
// odd ones clear, both flags set.
func TestTowerStateBits(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	n := allocTower(0, maxLevel)
	want := heightBits(maxLevel) | stDeleted | stIdxDone
	start := make(chan struct{})
	errs := make(chan string, maxLevel)
	var wg sync.WaitGroup
	for l := 0; l < maxLevel; l++ {
		bit := uint32(1) << uint(l)
		if l%2 == 0 {
			want |= bit
		}
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			<-start
			var seen uint32 // flags observed so far: they must never vanish
			check := func(step string, wantBit uint32) bool {
				st := n.state.Load()
				if st&bit != wantBit || st&seen != seen {
					errs <- fmt.Sprintf("level %d after %s: state %#x, want bit %#x and flags %#x", l, step, st, wantBit, seen)
					return false
				}
				seen |= st & (stDeleted | stIdxDone)
				return true
			}
			for i := 0; i < rounds; i++ {
				n.setLinked(l)
				if !check("setLinked", bit) {
					return
				}
				n.clearLinked(l)
				if !check("clearLinked", 0) {
					return
				}
			}
			if l%2 == 0 {
				n.setLinked(l)
			}
		}(l)
	}
	for _, set := range []func(){n.markDeleted, func() { n.setState(stIdxDone) }} {
		wg.Add(1)
		go func(set func()) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				set()
			}
		}(set)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := n.state.Load(); got != want {
		t.Fatalf("state = %#x, want %#x (lost bits %#x, extra bits %#x)", got, want, want&^got, got&^want)
	}
	if !n.isDeleted() {
		t.Fatal("isDeleted() = false after markDeleted")
	}
}

// TestTowerStateRetire pins maybeRetire's single CAS: a tower
// retires only from exactly height|deleted|idxDone, and only in arena
// mode. Any linked bit left, a missing fact, or an earlier retirement
// must leave both the word and the arena's limbo untouched. Each row's
// state carries its tower's height, as every live tower's does.
func TestTowerStateRetire(t *testing.T) {
	for _, c := range []struct {
		name   string
		height int
		state  uint32
		arena  bool
		retire bool
	}{
		{"deleted|idxDone", 3, stDeleted | stIdxDone, true, true},
		{"deleted|idxDone at height 6", 6, stDeleted | stIdxDone, true, true},
		{"deleted|idxDone without arena", 3, stDeleted | stIdxDone, false, false},
		{"fresh", 3, 0, true, false},
		{"deleted only", 3, stDeleted, true, false},
		{"idxDone only", 3, stIdxDone, true, false},
		{"level 0 still linked", 3, stDeleted | stIdxDone | 1, true, false},
		{"index level still linked", 3, stDeleted | stIdxDone | 1<<5, true, false},
		{"top level still linked", 3, stDeleted | stIdxDone | 1<<(maxLevel-1), true, false},
		{"live and linked", 3, stIdxDone | 1, true, false},
		{"already retired", 3, stDeleted | stIdxDone | stRetired, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewVB()
			if c.arena {
				s = NewVBArena()
			}
			n := allocTower(7, c.height)
			n.state.Store(heightBits(c.height) | c.state)
			g := s.arena.Pin()
			s.maybeRetire(g, n)
			g.Unpin()
			want := heightBits(c.height) | c.state
			if c.retire {
				want |= stRetired
			}
			if got := n.state.Load(); got != want {
				t.Errorf("state after maybeRetire = %#x, want %#x", got, want)
			}
			var retired uint64
			if st, ok := s.ArenaStats(); ok {
				retired = st.Retired
			}
			if wantN := map[bool]uint64{true: 1}[c.retire]; retired != wantN {
				t.Errorf("arena retired %d towers, want %d", retired, wantN)
			}
		})
	}
}
