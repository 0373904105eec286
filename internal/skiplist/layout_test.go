package skiplist

import (
	"runtime"
	"testing"
	"unsafe"
)

// towerCap is the up-link capacity of height class c: the embedded link
// array of the class's tower struct, sized for its tallest member.
var towerCap = [numTowerClasses]int{0, 2, 6, maxLevel - 1}

// TestTowerLayout pins the height-sized tower layout so it cannot
// silently regress: the header is 48 bytes with everything the level-0
// VBL protocol reads in its first 24, each height class is exactly
// header plus its link array, a height-2/3 tower is one aligned cache
// line, and the head and tail carry every level.
func TestTowerLayout(t *testing.T) {
	if sz := unsafe.Sizeof(vbNode{}); sz != 48 {
		t.Fatalf("vbNode header is %d bytes, want 48", sz)
	}
	var n vbNode
	for name, off := range map[string]uintptr{
		"val":   unsafe.Offsetof(n.val),
		"next0": unsafe.Offsetof(n.next0),
		"state": unsafe.Offsetof(n.state),
		"lock":  unsafe.Offsetof(n.lock),
	} {
		if off >= 24 {
			t.Errorf("vbNode.%s at offset %d, want below 24 (level-0 fields lead the header)", name, off)
		}
	}
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"tower3", unsafe.Sizeof(tower3{}), 64},
		{"tower7", unsafe.Sizeof(tower7{}), 96},
		{"towerMax", unsafe.Sizeof(towerMax{}), 200},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	for h := 1; h <= maxLevel; h++ {
		n := allocTower(int64(h), h)
		if n.height() != h || len(n.up) != h-1 || cap(n.up) != towerCap[towerClass(h)] {
			t.Errorf("allocTower(_, %d): height %d, len(up) %d, cap(up) %d; want %d, %d, %d",
				h, n.height(), len(n.up), cap(n.up), h, h-1, towerCap[towerClass(h)])
		}
		// A 64-byte object sits in the allocator's 64-byte size class,
		// whose slots are 64-byte aligned: the whole tower is one line.
		if towerClass(h) == 1 {
			if a := uintptr(unsafe.Pointer(n)); a%64 != 0 {
				t.Errorf("height-%d tower at %#x straddles a 64-byte line", h, a)
			}
		}
	}
	s := NewVB()
	for name, n := range map[string]*vbNode{"head": s.head, "tail": s.tail} {
		if n.height() != maxLevel {
			t.Errorf("%s: height %d, want %d", name, n.height(), maxLevel)
		}
	}
	for l := 0; l < maxLevel; l++ {
		if s.head.at(l).Load() != s.tail {
			t.Fatalf("empty list: head level %d does not point at tail", l)
		}
	}
}

// checkTowerShapes walks level 0 at quiescence and asserts that every
// reachable tower's height lies within the list's levels, its up slice
// within the capacity its height class allocates (a recycled tower
// reused at a new height must have been resliced, never left at its
// old length), and that no reachable tower carries the retired bit.
func checkTowerShapes(t *testing.T, s *VB) {
	t.Helper()
	for curr := s.head.next0.Load(); curr != s.tail; curr = curr.next0.Load() {
		h := curr.height()
		if h < 1 || h > s.levels {
			t.Fatalf("tower %d has height %d outside [1, %d]", curr.val, h, s.levels)
		}
		if c := cap(curr.up); c != towerCap[towerClass(h)] {
			t.Fatalf("tower %d of height %d: cap(up) = %d, want its class's %d", curr.val, h, c, towerCap[towerClass(h)])
		}
		if st := curr.state.Load(); st&stRetired != 0 {
			t.Fatalf("tower %d reachable at level 0 with state %#x: retired", curr.val, st)
		}
	}
}

// liveHeap returns the live heap after two full collections (the
// second frees what sync.Pool victim caches held across the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestVBMemoryPerKey bounds the index's memory bill: a bulk-loaded list
// keeps at most 64 bytes of live heap per key in both GC and arena
// mode. Geometric(1/2) heights over the four tower sizes (48, 64, 96,
// 208 B after size-class rounding) average ~61 B; a fixed maxLevel
// link array would cost 208.
func TestVBMemoryPerKey(t *testing.T) {
	const n = 1 << 16
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 7
	}
	for name, mk := range map[string]func() *VB{"gc": NewVB, "arena": NewVBArena} {
		t.Run(name, func(t *testing.T) {
			before := liveHeap()
			s := mk()
			if got := s.Load(keys); got != n {
				t.Fatalf("Load = %d, want %d", got, n)
			}
			after := liveHeap()
			perKey := (float64(after) - float64(before)) / n
			runtime.KeepAlive(s)
			t.Logf("%s: %.2f B/key", name, perKey)
			if perKey > 64 {
				t.Fatalf("%s: %.2f B/key of live heap, want <= 64", name, perKey)
			}
		})
	}
}

// TestVBContainsLinesTouched is ROADMAP item 6's per-layer
// count of the cache lines and towers one Contains reads on an
// index-point shard (62 500 keys, 0, 2, ..., 124 998). It replays
// Contains' descent through at() for 65 536 queries from a fixed LCG
// and counts, per query, the distinct 64-byte lines among each
// dereferenced tower's val and state words and each link slot loaded
// (an upper slot together with the up slice header it is reached
// through), head and tail excluded, plus the distinct towers. The
// tower count is exact; the line count moves by about a line with where
// the allocator places the towers. The 64-byte header read 39.3-40.5
// lines and 22.0 towers per query; the 48-byte header, which puts every
// height-2/3 tower in one line, reads 34.6-36.8 over the same towers.
func TestVBContainsLinesTouched(t *testing.T) {
	const (
		n       = 62500
		queries = 1 << 16
	)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 2
	}
	s := NewVB()
	s.Load(keys)
	lines := map[uintptr]bool{}
	towers := map[*vbNode]bool{}
	touch := func(n *vbNode, p unsafe.Pointer) {
		if n != s.head && n != s.tail {
			lines[uintptr(p)/64] = true
		}
	}
	// val dereferences a tower for its key, load follows one of its
	// links, and deleted reads its mark — exactly Contains' loads.
	val := func(n *vbNode) int64 {
		if n != s.head && n != s.tail {
			towers[n] = true
		}
		touch(n, unsafe.Pointer(n)) // val is the header's first word
		return n.val
	}
	load := func(n *vbNode, l int) *vbNode {
		if l > 0 {
			touch(n, unsafe.Pointer(&n.up))
		}
		touch(n, unsafe.Pointer(n.at(l)))
		return n.at(l).Load()
	}
	deleted := func(n *vbNode) bool {
		touch(n, unsafe.Pointer(&n.state))
		return n.isDeleted()
	}
	var sumLines, sumTowers int
	x := uint64(1)
	for q := 0; q < queries; q++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(x>>33) % (2 * n)
		clear(lines)
		clear(towers)
		pred := s.head
		for l := s.levels - 1; l >= 1; l-- {
			curr := load(pred, l)
			for val(curr) < v {
				if deleted(curr) {
					curr = load(curr, l)
					continue
				}
				pred = curr
				curr = load(pred, l)
			}
		}
		curr := load(pred, 0)
		for val(curr) < v {
			curr = load(curr, 0)
		}
		if found := val(curr) == v && !deleted(curr); found != s.Contains(v) {
			t.Fatalf("replayed descent for %d found %v, Contains disagrees", v, found)
		}
		sumLines += len(lines)
		sumTowers += len(towers)
	}
	perLines := float64(sumLines) / queries
	perTowers := float64(sumTowers) / queries
	t.Logf("per Contains: %.2f lines, %.2f towers", perLines, perTowers)
	if perLines > 39 {
		t.Errorf("%.2f distinct lines per Contains, want <= 39", perLines)
	}
	if perTowers > 22.1 {
		t.Errorf("%.2f distinct towers per Contains, want <= 22.1", perTowers)
	}
}
