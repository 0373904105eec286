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
// silently regress: the header is one 64-byte line holding everything
// the level-0 VBL protocol reads, each height class is exactly header
// plus its link array, and the head and tail carry every level.
func TestTowerLayout(t *testing.T) {
	if sz := unsafe.Sizeof(vbNode{}); sz != 64 {
		t.Fatalf("vbNode header is %d bytes, want 64", sz)
	}
	var n vbNode
	for name, off := range map[string]uintptr{
		"val":     unsafe.Offsetof(n.val),
		"next0":   unsafe.Offsetof(n.next0),
		"deleted": unsafe.Offsetof(n.deleted),
		"lock":    unsafe.Offsetof(n.lock),
	} {
		if off >= 64 {
			t.Errorf("vbNode.%s at offset %d, want below 64 (level-0 fields share the header line)", name, off)
		}
	}
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"tower3", unsafe.Sizeof(tower3{}), 80},
		{"tower7", unsafe.Sizeof(tower7{}), 112},
		{"towerMax", unsafe.Sizeof(towerMax{}), 216},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	for h := 1; h <= maxLevel; h++ {
		n := allocTower(int64(h), h)
		if int(n.height) != h || len(n.up) != h-1 || cap(n.up) != towerCap[towerClass(h)] {
			t.Errorf("allocTower(_, %d): height %d, len(up) %d, cap(up) %d; want %d, %d, %d",
				h, n.height, len(n.up), cap(n.up), h, h-1, towerCap[towerClass(h)])
		}
	}
	s := NewVB()
	for name, n := range map[string]*vbNode{"head": s.head, "tail": s.tail} {
		if n.height != maxLevel || len(n.up) != maxLevel-1 {
			t.Errorf("%s: height %d with %d up links, want %d and %d", name, n.height, len(n.up), maxLevel, maxLevel-1)
		}
	}
	for l := 0; l < maxLevel; l++ {
		if s.head.at(l).Load() != s.tail {
			t.Fatalf("empty list: head level %d does not point at tail", l)
		}
	}
}

// checkTowerShapes walks level 0 at quiescence and asserts that every
// reachable tower's up slice is exactly height-1 links long, within the
// capacity its height class allocates. A recycled tower reused at a
// new height must have been resliced, never left at its old length.
func checkTowerShapes(t *testing.T, s *VB) {
	t.Helper()
	for curr := s.head.next0.Load(); curr != s.tail; curr = curr.next0.Load() {
		h := int(curr.height)
		if h < 1 || h > s.levels {
			t.Fatalf("tower %d has height %d outside [1, %d]", curr.val, h, s.levels)
		}
		if len(curr.up) != h-1 {
			t.Fatalf("tower %d: len(up) = %d, want height-1 = %d", curr.val, len(curr.up), h-1)
		}
		if c := cap(curr.up); c != towerCap[towerClass(h)] {
			t.Fatalf("tower %d of height %d: cap(up) = %d, want its class's %d", curr.val, h, c, towerCap[towerClass(h)])
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
// keeps at most 96 bytes of live heap per key in both GC and arena
// mode. Geometric(1/2) heights over the four tower sizes (64, 80, 112,
// 224 B) average ~77 B; a fixed maxLevel link array would cost 208.
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
			if perKey > 96 {
				t.Fatalf("%s: %.2f B/key of live heap, want <= 96", name, perKey)
			}
		})
	}
}
