package skiplist

import (
	"bytes"
	"flag"
	"math"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"unsafe"
)

// towerSize is the byte size of height class c's tower: the header
// plus the class's link array, each exactly one allocator size class.
var towerSize = [numTowerClasses]uintptr{24, 48, 80, 176}

// TestTowerLayout pins the height-sized tower layout so it cannot
// silently regress: the header is 24 bytes and holds everything the
// level-0 VBL protocol reads, each height class is exactly header plus
// its link array and costs exactly that much heap, every link at(l)
// addresses lies inside its tower's allocation, and the head and tail
// carry every level.
func TestTowerLayout(t *testing.T) {
	hdr := unsafe.Sizeof(vbNode{})
	if hdr != towerSize[0] {
		t.Fatalf("vbNode header is %d bytes, want %d", hdr, towerSize[0])
	}
	var n vbNode
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"val", unsafe.Offsetof(n.val), unsafe.Sizeof(n.val)},
		{"next0", unsafe.Offsetof(n.next0), unsafe.Sizeof(n.next0)},
		{"state", unsafe.Offsetof(n.state), unsafe.Sizeof(n.state)},
		{"lock", unsafe.Offsetof(n.lock), unsafe.Sizeof(n.lock)},
	} {
		if f.off+f.size > hdr {
			t.Errorf("vbNode.%s spans [%d, %d), outside the %d-byte header", f.name, f.off, f.off+f.size, hdr)
		}
	}
	sizes := [numTowerClasses]uintptr{hdr, unsafe.Sizeof(tower4{}), unsafe.Sizeof(tower8{}), unsafe.Sizeof(towerMax{})}
	if sizes != towerSize {
		t.Errorf("tower class sizes %v, want %v", sizes, towerSize)
	}
	// Each class's heap cost per object is its struct size (no
	// size-class slack), and every link at(l) addresses lies inside the
	// struct (none in unscanned slack the GC would miss).
	const objs = 1 << 14
	keep := make([]*vbNode, objs)
	for c, h := range [numTowerClasses]int{1, 2, 5, 9} {
		clear(keep)
		before := liveHeap()
		for i := range keep {
			keep[i] = allocTower(int64(i), h)
		}
		after := liveHeap()
		if per := math.Round((float64(after) - float64(before)) / objs); per != float64(sizes[c]) {
			t.Errorf("class %d (height %d): %.0f B of live heap per tower, want its struct's %d", c, h, per, sizes[c])
		}
	}
	runtime.KeepAlive(keep)
	for h := 1; h <= maxLevel; h++ {
		n := allocTower(int64(h), h)
		if n.height() != h {
			t.Errorf("allocTower(_, %d): height %d", h, n.height())
		}
		base := uintptr(unsafe.Pointer(n))
		end := base + sizes[towerClass(h)]
		for l := 0; l < h; l++ {
			if p := uintptr(unsafe.Pointer(n.at(l))); p < base || p+unsafe.Sizeof(n.next0) > end {
				t.Errorf("height-%d tower [%#x, %#x): at(%d) = %#x lies outside it", h, base, end, l, p)
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
// reachable tower's height lies within the list's levels, that no
// linked bit is set at or above its height (a recycled tower reused at
// a new height must carry that height, never its old one), and that no
// reachable tower carries the retired bit.
func checkTowerShapes(t *testing.T, s *VB) {
	t.Helper()
	for curr := s.head.next0.Load(); curr != s.tail; curr = curr.next0.Load() {
		h := curr.height()
		if h < 1 || h > s.levels {
			t.Fatalf("tower %d has height %d outside [1, %d]", curr.val, h, s.levels)
		}
		st := curr.state.Load()
		if above := st & stLinked &^ (1<<uint(h) - 1); above != 0 {
			t.Fatalf("tower %d of height %d has linked bits %#x at or above its height", curr.val, h, above)
		}
		if st&stRetired != 0 {
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
// keeps at most 40 bytes of live heap per key in both GC and arena
// mode. Geometric(1/2) heights over the four tower sizes (24, 48, 80,
// 176 B, each an allocator size class) average ~38.4 B; a fixed
// maxLevel link array would cost 208. Each mode measures in a child
// process of the test binary: in the parent, the live-heap delta also
// caught garbage other tests' goroutines made meanwhile (46.35 B/key
// while other test jobs shared the host, 38.35-38.44 alone).
func TestVBMemoryPerKey(t *testing.T) {
	for name, mk := range map[string]func() *VB{"gc": NewVB, "arena": NewVBArena} {
		t.Run(name, func(t *testing.T) {
			inFreshProcess(t, "^TestVBMemoryPerKey$/^"+name+"$", "B/key", func(t *testing.T) {
				const n = 1 << 16
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = int64(i) * 7
				}
				before := liveHeap()
				s := mk()
				if got := s.Load(keys); got != n {
					t.Fatalf("Load = %d, want %d", got, n)
				}
				after := liveHeap()
				perKey := (float64(after) - float64(before)) / n
				// keys is live in both readings, so only the list counts.
				runtime.KeepAlive(keys)
				runtime.KeepAlive(s)
				t.Logf("%s: %.2f B/key", name, perKey)
				if perKey > 40 {
					t.Fatalf("%s: %.2f B/key of live heap, want <= 40", name, perKey)
				}
			})
		})
	}
}

// inFreshProcess runs measure in a child process of the test binary, so
// that its heap holds no other test's garbage, allocator holes or
// goroutines. run is the -test.run pattern that selects the calling
// (sub)test alone; the child recognizes itself by it and measures. The
// child's output must contain want.
func inFreshProcess(t *testing.T, run, want string, measure func(*testing.T)) {
	t.Helper()
	if flag.Lookup("test.run").Value.String() == run {
		measure(t)
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run="+run, "-test.v").CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte(want)) {
		t.Fatalf("child process failed (%v):\n%s", err, out)
	}
	t.Logf("child process:\n%s", out)
}

// TestVBContainsLinesTouched is ROADMAP item 6's per-layer
// count of the cache lines and towers one Contains reads on an
// index-point shard (62 500 keys, 0, 2, ..., 124 998). It replays
// Contains' descent through at() for 65 536 queries from a fixed LCG
// and counts, per query, the distinct 64-byte lines among each
// dereferenced tower's val and state words and each link slot loaded,
// head and tail excluded, plus the distinct towers. The 64-byte header
// read 39.3-40.5 lines and 22.0 towers per query, and the 48-byte
// header, whose upper links were reached through an up slice header,
// 34.6-36.8; the 24-byte header, which addresses them directly, reads
// 32.4-33.0 over the same towers.
//
// Those figures moved with where the allocator put the towers Load
// allocates: in the holes earlier tests' garbage left, and on a fresh
// heap with the Ps the load ran on, since each P fills its own spans
// (31.9-35.0 on two Ps under -race). So the pinned line count reads the
// towers' addresses in a reference layout instead — each height class
// back to back in Load's key order, the order one goroutine's Load
// allocates in — which the allocator cannot move: 32.62 on every run.
// The count at the towers' real addresses is logged next to it. The
// replay runs in a child process of the test binary (inFreshProcess),
// so that logged count is a fresh heap's.
func TestVBContainsLinesTouched(t *testing.T) {
	t.Run("fresh heap", func(t *testing.T) {
		inFreshProcess(t, "^TestVBContainsLinesTouched$/^fresh_heap$", "per Contains", replayContainsLines)
	})
}

// replayContainsLines is TestVBContainsLinesTouched's measurement.
func replayContainsLines(t *testing.T) {
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
	// ref places each tower in the reference layout: every height
	// class's towers back to back in Load's ascending-key order, each
	// class from its own line-aligned base.
	ref := map[*vbNode]uintptr{}
	size := [numTowerClasses]uintptr{unsafe.Sizeof(vbNode{}), unsafe.Sizeof(tower4{}), unsafe.Sizeof(tower8{}), unsafe.Sizeof(towerMax{})}
	var next [numTowerClasses]uintptr
	for c := range next {
		next[c] = uintptr(c) << 32
	}
	for n := s.head.at(0).Load(); n != s.tail; n = n.at(0).Load() {
		c := towerClass(n.height())
		ref[n] = next[c]
		next[c] += size[c]
	}
	lines, heapLines := map[uintptr]bool{}, map[uintptr]bool{}
	towers := map[*vbNode]bool{}
	touch := func(n *vbNode, p unsafe.Pointer) {
		if n != s.head && n != s.tail {
			lines[(ref[n]+uintptr(p)-uintptr(unsafe.Pointer(n)))/64] = true
			heapLines[uintptr(p)/64] = true
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
		touch(n, unsafe.Pointer(n.at(l)))
		return n.at(l).Load()
	}
	deleted := func(n *vbNode) bool {
		touch(n, unsafe.Pointer(&n.state))
		return n.isDeleted()
	}
	var sumLines, sumHeapLines, sumTowers int
	x := uint64(1)
	for q := 0; q < queries; q++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(x>>33) % (2 * n)
		clear(lines)
		clear(heapLines)
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
		sumHeapLines += len(heapLines)
		sumTowers += len(towers)
	}
	perLines := float64(sumLines) / queries
	perTowers := float64(sumTowers) / queries
	t.Logf("per Contains: %.2f lines (%.2f as allocated), %.2f towers", perLines, float64(sumHeapLines)/queries, perTowers)
	if perLines > 34 {
		t.Errorf("%.2f distinct lines per Contains, want <= 34", perLines)
	}
	if perTowers > 22.1 {
		t.Errorf("%.2f distinct towers per Contains, want <= 22.1", perTowers)
	}
}
