package skiplist

import "listset/internal/batch"

// Batched and ranged operations for the skip lists: the one-pass
// multi-window discipline of DESIGN.md §13 lifted to log-time.
//
// A flat list amortizes a batch by never rewinding its single cursor.
// A skip list amortizes by FINGER SEARCH: the per-level predecessors of
// the previous key are remembered, and the next (strictly larger) key's
// descent starts its horizontal walk from each remembered finger
// instead of from head. A finger-seeded descent still visits every
// level top-down, so a key costs O(L) level steps — cache hits where
// the fingers sit — plus O(log d) expected tower visits for distance d
// between consecutive keys.
//
// Those tower visits are dependent cache misses, one after another
// within a key but independent across keys. The VB list therefore
// descends the sorted batch in LANE GROUPS of batchLanes consecutive
// keys: descendLanes walks the group's keys level by level together,
// so the lanes' loads overlap their misses (AMAC-style interleaving,
// applied to navigation only). The lanes' per-level predecessors then
// seed each key's own pass, key by key in ascending order: InsertAll
// and RemoveAll hand them to insertFrom and removeFrom as fingers,
// ContainsAll to its level-0 walk (containsFrom).
//
// Fingers obey findFrom's adoption rule: a finger is only trusted if
// it was observed LIVE (not deleted/marked) during this pinned pass and
// still precedes the key — otherwise the descent for that level falls
// back to wherever the level above landed, exactly as if the finger had
// never been recorded. Deleted fingers therefore cost speed, never
// correctness. On a failed level-0 validation a key restarts from the
// fingers its last descent left (the skip-list analogue of the flat
// lists' anchor-restart); the VB list counts obs.EvBatchWindowRestart
// for a batch key's restarts on top of the usual restart events.
//
// There is no whole-batch atomicity: each key linearizes individually,
// in ascending key order. A single-key Insert or Remove is the same
// per-key step, insertFrom or removeFrom, run from zeroed fingers —
// that is, from head.

// batchLanes is the lane-group width: how many consecutive keys of a
// sorted batch descend the index together.
const batchLanes = 8

// vbLanes holds a lane group's descent: lanes[l][i] is the level-l
// predecessor of the group's i-th key. Level-major, so descendLanes
// stores each level's lanes as one block.
type vbLanes [maxLevel][batchLanes]*vbNode

// laneFingers copies lane i's per-level predecessors into fingers,
// replacing the previous key's. Keeping those where they are live and
// further on measured ~6 % slower per batch update key (1<<20 keys,
// freshly loaded or churned): the checks cost more than the short walk
// over cache-hot towers they save.
func (s *VB) laneFingers(lanes *vbLanes, i int, fingers *[maxLevel]*vbNode) {
	for l := range s.levels {
		fingers[l] = lanes[l][i]
	}
}

// descendLanes descends the lane group ks — at most batchLanes
// consecutive keys of a sorted batch — level by level together,
// recording each lane's per-level predecessor in lanes. At each level
// a lane walks from the larger of its own predecessor from the level
// above and the previous group's carried finger, routing through
// deleted towers without adopting or unlinking them. The lanes are
// independent pure reads under the caller's pin, so their cache misses
// overlap; the recorded predecessors are hints, re-validated at each
// key's own turn. (The walk is spelled out rather than shared with
// findFrom: a helper does not inline and measured ~20 ns/key slower.)
func (s *VB) descendLanes(ks []int64, fingers *[maxLevel]*vbNode, lanes *vbLanes) {
	// The lanes' cursors live in this frame and reach lanes as one block
	// per level: storing each lane through lanes instead measured ~20 %
	// slower per key on a churned 1<<20-key set.
	var preds [batchLanes]*vbNode
	for i := range preds {
		preds[i] = s.head
	}
	for l := s.levels - 1; l >= 0; l-- {
		for i, v := range ks {
			p := adoptVBFinger(preds[i], fingers[l], v)
			curr := p.at(l).Load()
			for curr.val < v {
				if curr.isDeleted() {
					curr = curr.at(l).Load() // route through, don't adopt
					continue
				}
				p = curr
				curr = p.at(l).Load()
			}
			preds[i] = p
		}
		lanes[l] = preds
	}
}

// InsertAll adds every key of keys to the set and returns how many
// were absent (and are now present). The batch is sorted and
// deduplicated first; each key's insert linearizes individually, in
// ascending key order, within the call.
func (s *VB) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	inserted := 0
	var fingers [maxLevel]*vbNode
	var lanes vbLanes
	for len(ks) > 0 {
		grp := ks[:min(len(ks), batchLanes)]
		ks = ks[len(grp):]
		s.descendLanes(grp, &fingers, &lanes)
		for i, v := range grp {
			s.laneFingers(&lanes, i, &fingers)
			if s.insertFrom(g, v, &fingers) {
				inserted++
			}
		}
	}
	g.Unpin()
	b.Put()
	return inserted
}

// RemoveAll deletes every key of keys from the set and returns how
// many were present (and are now absent). The batch is sorted and
// deduplicated first; each key's remove linearizes individually, in
// ascending key order, within the call.
func (s *VB) RemoveAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	removed := 0
	var fingers [maxLevel]*vbNode
	var lanes vbLanes
	for len(ks) > 0 {
		grp := ks[:min(len(ks), batchLanes)]
		ks = ks[len(grp):]
		s.descendLanes(grp, &fingers, &lanes)
		for i, v := range grp {
			s.laneFingers(&lanes, i, &fingers)
			if s.removeFrom(g, v, &fingers) {
				removed++
			}
		}
	}
	g.Unpin()
	b.Put()
	return removed
}

// ContainsAll reports how many of the keys are in the set. Wait-free:
// one pinned pass serves the whole sorted batch via lane-group
// descents; each key's query linearizes individually at the load that
// reached its level-0 position.
func (s *VB) ContainsAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	found := 0
	var fingers [maxLevel]*vbNode
	var lanes vbLanes
	for len(ks) > 0 {
		grp := ks[:min(len(ks), batchLanes)]
		ks = ks[len(grp):]
		s.descendLanes(grp, &fingers, &lanes)
		prev := fingers[0]
		for i, v := range grp {
			var curr *vbNode
			prev, curr = s.containsFrom(lanes[0][i], prev, v)
			if curr.val == v && !curr.isDeleted() {
				found++
			}
		}
		s.laneFingers(&lanes, len(grp)-1, &fingers)
		fingers[0] = prev
	}
	g.Unpin()
	b.Put()
	return found
}

// containsFrom is one key of ContainsAll: the level-0 walk to v's
// position, returning its final predecessor (the next key's prev) and
// the node it stopped at. It starts from the larger of the lane's
// level-0 predecessor start and the previous key's final predecessor
// prev that is live when re-checked here, right before the walk: an
// undeleted tower is reachable at that moment, which is after the
// previous key linearized, so v's query linearizes after it — the
// ascending-order batch contract. Both were live only when recorded
// and a deleted tower's frozen next0 may skip ahead past a later
// insert, so when neither is live the walk re-descends from head, as
// Contains does, and returns a nil predecessor.
func (s *VB) containsFrom(start, prev *vbNode, v int64) (pred, curr *vbNode) {
	if start.isDeleted() {
		start = nil
	}
	if prev != nil && (start == nil || prev.val > start.val) && !prev.isDeleted() {
		start = prev
	}
	if start == nil {
		return nil, s.descendTo(v)
	}
	pred = start
	curr = pred.next0.Load()
	for curr.val < v {
		pred = curr
		curr = curr.next0.Load()
	}
	return pred, curr
}

// RangeScan returns the live keys in [lo, hi) in ascending order: a
// log-time descent to lo, then a wait-free level-0 walk. Values along
// the level-0 chain are strictly increasing even through nodes unlinked
// mid-scan, so the result is sorted and duplicate-free by construction;
// each reported (and skipped) key linearizes at the load that passed
// its position.
func (s *VB) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	g := s.arena.Pin()
	var out []int64
	curr := s.descendTo(lo)
	for curr.val < hi {
		if !curr.isDeleted() {
			out = append(out, curr.val)
		}
		curr = curr.next0.Load()
	}
	g.Unpin()
	return out
}

// Ascend calls yield for every live key >= from in ascending order
// until yield returns false or the list ends. The traversal is
// wait-free; the epoch stays pinned for the duration, so yield should
// be short.
func (s *VB) Ascend(from int64, yield func(int64) bool) {
	g := s.arena.Pin()
	curr := s.descendTo(from)
	for curr.val != MaxSentinel {
		if !curr.isDeleted() && !yield(curr.val) {
			break
		}
		curr = curr.next0.Load()
	}
	g.Unpin()
}

// descendTo returns the first level-0 node with val >= v, reached by a
// wait-free index descent (no unlinking, deleted towers routed
// through).
func (s *VB) descendTo(v int64) *vbNode {
	pred := s.head
	for l := s.levels - 1; l >= 1; l-- {
		curr := pred.at(l).Load()
		for curr.val < v {
			if curr.isDeleted() {
				curr = curr.at(l).Load()
				continue
			}
			pred = curr
			curr = pred.at(l).Load()
		}
	}
	curr := pred.next0.Load()
	for curr.val < v {
		curr = curr.next0.Load()
	}
	return curr
}

// Load bulk-inserts keys with finger-seeded unsynchronized descents:
// O(k + log n) on a fresh or dense load, towers and all. It takes no
// locks and must only be used at quiescence (setup/population), before
// the set is shared. Returns how many keys were absent.
func (s *VB) Load(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	added := 0
	var fingers [maxLevel]*vbNode
	for _, v := range ks {
		preds, succs := s.findFrom(g, v, &fingers)
		if succs[0].val == v {
			continue
		}
		h := s.randomHeight()
		n := s.newTower(g, v, h)
		for l := 0; l < h; l++ {
			n.at(l).Store(succs[l])
		}
		n.setLinked(0)
		preds[0].next0.Store(n)
		for l := 1; l < h; l++ {
			n.setLinked(l)
			preds[l].at(l).Store(n)
		}
		n.setState(stIdxDone)
		for l := 0; l < h; l++ {
			fingers[l] = n
		}
		added++
	}
	g.Unpin()
	b.Put()
	return added
}

// ---- Lazy skip list ----

// InsertAll adds every key of keys and returns how many were absent.
// Each key runs the full Lazy insert protocol (lock every distinct
// predecessor, validate, link) — only the descent is amortized.
func (s *Lazy) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	inserted := 0
	var fingers [maxLevel]*lazyNode
	for _, v := range ks {
		if s.insertFrom(v, &fingers) {
			inserted++
		}
	}
	b.Put()
	return inserted
}

// RemoveAll deletes every key of keys and returns how many were
// present. Each key runs the full Lazy remove protocol; only the
// descent is amortized.
func (s *Lazy) RemoveAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	removed := 0
	var fingers [maxLevel]*lazyNode
	for _, v := range ks {
		if s.removeFrom(v, &fingers) {
			removed++
		}
	}
	b.Put()
	return removed
}

// ContainsAll reports how many of the keys are in the set: wait-free
// finger-seeded descents, Herlihy & Shavit's per-key verdict.
func (s *Lazy) ContainsAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	found := 0
	var fingers [maxLevel]*lazyNode
	for _, v := range ks {
		_, succs, lFound := s.findFrom(v, &fingers)
		if lFound != -1 &&
			succs[lFound].fullyLinked.Load() &&
			!succs[lFound].marked.Load() {
			found++
		}
	}
	b.Put()
	return found
}

// RangeScan returns the live keys in [lo, hi) in ascending order: a
// log-time descent, then a wait-free level-0 walk.
func (s *Lazy) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	var out []int64
	curr := s.descendTo(lo)
	for curr.val < hi {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			out = append(out, curr.val)
		}
		curr = curr.next[0].Load()
	}
	return out
}

// Ascend calls yield for every live key >= from in ascending order
// until yield returns false or the list ends.
func (s *Lazy) Ascend(from int64, yield func(int64) bool) {
	curr := s.descendTo(from)
	for curr.val != MaxSentinel {
		if curr.fullyLinked.Load() && !curr.marked.Load() && !yield(curr.val) {
			break
		}
		curr = curr.next[0].Load()
	}
}

// descendTo returns the first level-0 node with val >= v.
func (s *Lazy) descendTo(v int64) *lazyNode {
	pred := s.head
	for l := s.levels - 1; l >= 1; l-- {
		curr := pred.next[l].Load()
		for curr.val < v {
			pred = curr
			curr = pred.next[l].Load()
		}
	}
	curr := pred.next[0].Load()
	for curr.val < v {
		curr = curr.next[0].Load()
	}
	return curr
}

// Load bulk-inserts keys with finger-seeded unsynchronized descents.
// It takes no locks and must only be used at quiescence
// (setup/population), before the set is shared. Returns how many keys
// were absent.
func (s *Lazy) Load(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	added := 0
	var fingers [maxLevel]*lazyNode
	for _, v := range ks {
		preds, succs, lFound := s.findFrom(v, &fingers)
		if lFound != -1 {
			continue
		}
		h := s.randomHeight()
		//lint:ignore hotalloc bulk population materializes towers on the heap by design
		n := &lazyNode{val: v, height: h}
		for l := 0; l < h; l++ {
			n.next[l].Store(succs[l])
			preds[l].next[l].Store(n)
		}
		n.fullyLinked.Store(true)
		for l := 0; l < h; l++ {
			fingers[l] = n
		}
		added++
	}
	b.Put()
	return added
}

// Guard against interface drift: both skip lists carry the full batch
// surface (the root package and the shard façade assert these
// structurally).
type vbBatchSurface interface {
	InsertAll([]int64) int
	RemoveAll([]int64) int
	ContainsAll([]int64) int
	RangeScan(lo, hi int64) []int64
	Ascend(from int64, yield func(int64) bool)
	Load([]int64) int
}

var (
	_ vbBatchSurface = (*VB)(nil)
	_ vbBatchSurface = (*Lazy)(nil)
)
