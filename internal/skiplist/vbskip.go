// Package skiplist carries the paper's concluding conjecture into code:
// "generalizations of linked lists, such as skip-lists ... may allow for
// optimizations similar to the ones proposed in this paper" (§5).
//
// Two implementations are provided:
//
//   - VB (vbskip.go): a skip list whose membership level — level 0 — IS
//     the VBL list: wait-free traversal, logical deletion, and the
//     value-aware try-lock protocol unchanged. The upper levels are a
//     best-effort navigation index maintained with single-node
//     try-locks: an index level is linked or unlinked one lock at a
//     time, never while holding another node's lock, so the deadlock
//     freedom of the flat VBL carries over. Index imperfections
//     (not-yet-linked or not-yet-unlinked entries) affect only search
//     speed, never membership.
//   - Lazy (lazyskip.go): the LazySkipList of Herlihy & Shavit
//     (ch. 14.3), the established lock-based baseline, which locks every
//     predecessor level before deciding anything — the skip-list
//     analogue of the Lazy list's lock-then-validate discipline.
//
// Both are full citizens of the repository's cross-cutting layers: obs
// probes at the decision points, chaos failpoints mirroring the flat
// lists' sites, the bounded-retry escalation ladder, and (for VB) a
// height-classed arena with epoch-based
// reclamation. DESIGN.md §15 holds the acceptance and reclamation
// arguments.
package skiplist

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"listset/internal/failpoint"
	"listset/internal/mem"
	"listset/internal/obs"
	"listset/internal/trylock"
)

// Sentinel values stored in the head and tail towers.
const (
	MinSentinel = -1 << 63
	MaxSentinel = 1<<63 - 1
)

// maxLevel is the hard tower-height cap (the head's and tail's height).
// DefaultLevels is the default working height: randomHeight is
// geometric(1/2), so 18 levels index ~2^18 ≈ 262k expected elements
// per list (per shard under the sharded façade); NewVBLevels tunes it
// per instance within [1, maxLevel].
const (
	maxLevel      = 20
	DefaultLevels = 18
)

// vbNode is a tower's 24-byte header. val is immutable while the node
// is reachable, and so is the tower's height; next0 is the level-0
// successor, kept inline so that the header is exactly what the
// level-0 VBL protocol reads — val, next0, the deleted bit of state,
// lock. The successors of levels 1..height()-1 follow the header in
// the tower's own allocation (see allocTower), and at(l) reaches any
// level below height(). The deleted bit and lock implement the VBL
// protocol on level 0 (and guard this node's unlinking at every level).
//
// state packs the tower's height and lifecycle into one word: the
// height, written before the tower is published and fixed for its
// life; the deleted mark; and the linked mask, idxDone and retired,
// which exist for the arena's sake — they let the last unlinker prove
// a deleted tower unreachable (see maybeRetire). The linked bits
// (0..maxLevel-1) cover EVERY level the tower is published at, level 0
// included — a bit is set under the predecessor's lock BEFORE the link
// is stored, so any unlink of that level (which must lock the
// then-current predecessor) happens-after the set and the clear can
// never be lost. Bit 0 matters most: deleted is set inside the
// remover's critical section BEFORE the level-0 unlink store, so
// without it a concurrent index unlinker clearing the last index bit
// in that window would retire a tower still linked at level 0 — a
// retire-before-unreachable that breaks the arena's grace-period
// contract (the bucket is stamped before the node is unreachable, so a
// reader pinned one epoch later can stand on the tower when it
// recycles). Bit 0 is cleared by the remover only AFTER the unlink
// store, restoring retire-happens-after-unreachable.
type vbNode struct {
	val   int64
	next0 atomic.Pointer[vbNode]
	state atomic.Uint32
	lock  trylock.SpinLock
}

// state bits: the per-level linked mask, the three lifecycle flags,
// then the height in the 5 bits above them. Every flag is set at most
// once per tower life, only the linked bits are ever cleared, and the
// height is rewritten only by a (re)construction, before publication.
const (
	stLinked      = 1<<maxLevel - 1
	stIdxDone     = 1 << maxLevel
	stRetired     = 1 << (maxLevel + 1)
	stDeleted     = 1 << (maxLevel + 2)
	stHeightShift = maxLevel + 3
)

// heightBits is the state word of a fresh tower of height h.
func heightBits(h int) uint32 { return uint32(h) << stHeightShift }

// height is the number of levels the tower holds.
func (n *vbNode) height() int { return int(n.state.Load() >> stHeightShift) }

// at returns the successor link of level l < height(). Upper link l
// is the (l-1)th slot of the link array allocTower places right after
// the header, inside the same allocation: the address arithmetic stays
// within one object (unsafe.Pointer rule 3), which checkptr verifies
// under -race.
func (n *vbNode) at(l int) *atomic.Pointer[vbNode] {
	if l == 0 {
		return &n.next0
	}
	off := unsafe.Sizeof(vbNode{}) + uintptr(l-1)*unsafe.Sizeof(n.next0)
	return (*atomic.Pointer[vbNode])(unsafe.Add(unsafe.Pointer(n), off))
}

// isDeleted reports the VBL deletion mark.
func (n *vbNode) isDeleted() bool { return n.state.Load()&stDeleted != 0 }

// setState ORs bits into state (CAS loop: Go 1.22 has no atomic Or).
func (n *vbNode) setState(bits uint32) {
	for {
		old := n.state.Load()
		if n.state.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// markDeleted sets the deletion mark: logical deletion.
func (n *vbNode) markDeleted() { n.setState(stDeleted) }

// setLinked marks level l as published; callers hold the level's
// predecessor lock and set the bit before storing the link (see vbNode).
func (n *vbNode) setLinked(l int) { n.setState(1 << uint(l)) }

// clearLinked marks level l as unlinked again.
func (n *vbNode) clearLinked(l int) {
	for {
		old := n.state.Load()
		if n.state.CompareAndSwap(old, old&^(1<<uint(l))) {
			return
		}
	}
}

// Towers taller than one level are the header followed by an embedded
// link array, sized to their height class's tallest member
// (towerClass) so that each class fills one of the allocator's size
// classes exactly: one allocation per tower, so an upper-level hop
// reads the tower it lands on and nothing else.
type (
	tower4 struct {
		vbNode
		links [3]atomic.Pointer[vbNode]
	}
	tower8 struct {
		vbNode
		links [7]atomic.Pointer[vbNode]
	}
	towerMax struct {
		vbNode
		links [maxLevel - 1]atomic.Pointer[vbNode]
	}
)

// allocTower materializes a fresh tower of height h holding v on the
// heap, sized to h's height class: the bare 24-byte header at height
// 1, then 48, 80 or 176 bytes, each an allocator size class with no
// slack. The height goes into state before the tower is published.
// Every tower is built here — head and tail, GC-mode inserts, and
// arena-mode inserts whose class has nothing to recycle — so every
// vbNode is the head of its class's link array (which at relies on),
// and a recycled tower always has its class's capacity.
func allocTower(v int64, h int) *vbNode {
	var n *vbNode
	switch towerClass(h) {
	case 0:
		//lint:ignore hotalloc a height-1 tower is the bare 24-byte header: the one allocation of an insert the arena cannot serve
		n = &vbNode{val: v}
	case 1:
		//lint:ignore hotalloc heights 2-4: header and 3 links in one 48-byte object, the insert's only allocation
		t := &tower4{vbNode: vbNode{val: v}}
		n = &t.vbNode
	case 2:
		//lint:ignore hotalloc heights 5-8: header and 7 links in one 80-byte object, the insert's only allocation
		t := &tower8{vbNode: vbNode{val: v}}
		n = &t.vbNode
	default:
		//lint:ignore hotalloc heights 9 and up (1 in 256 towers, plus head and tail): header and maxLevel-1 links in one object
		t := &towerMax{vbNode: vbNode{val: v}}
		n = &t.vbNode
	}
	n.state.Store(heightBits(h))
	return n
}

// acquire takes n's lock, counting a contended acquisition when probes
// are attached.
func (n *vbNode) acquire(p *obs.Probes) {
	if n.lock.LockContended() && obs.On(p) {
		p.Inc(obs.EvTryLockContended, n.val)
	}
}

// countIdentityFail classifies a failed identity validation for the
// probe report. The re-read is racy — a borderline case may be
// classified either way — which is fine for a counter.
func (n *vbNode) countIdentityFail(p *obs.Probes) {
	if n.isDeleted() {
		p.Inc(obs.EvValFailDeleted, n.val)
	} else {
		p.Inc(obs.EvValFailSucc, n.val)
	}
}

// countValueFail classifies a failed value validation analogously.
func (n *vbNode) countValueFail(p *obs.Probes) {
	if n.isDeleted() {
		p.Inc(obs.EvValFailDeleted, n.val)
	} else {
		p.Inc(obs.EvValFailValue, n.val)
	}
}

// lockNextAt is the identity-validating value-aware try-lock at level
// l: lock-free pre-validation, acquire, revalidate under the lock.
func (n *vbNode) lockNextAt(l int, succ *vbNode, p *obs.Probes) bool {
	if n.isDeleted() || n.at(l).Load() != succ {
		if obs.On(p) {
			n.countIdentityFail(p)
		}
		return false
	}
	n.acquire(p)
	if n.isDeleted() || n.at(l).Load() != succ {
		n.lock.Unlock()
		if obs.On(p) {
			n.countIdentityFail(p)
		}
		return false
	}
	return true
}

// lockNextAtValue is the value-validating try-lock on level 0 — the
// paper's central novelty, applied unchanged to the membership level.
func (n *vbNode) lockNextAtValue(v int64, p *obs.Probes) bool {
	if n.isDeleted() || n.next0.Load().val != v {
		if obs.On(p) {
			n.countValueFail(p)
		}
		return false
	}
	n.acquire(p)
	if n.isDeleted() || n.next0.Load().val != v {
		n.lock.Unlock()
		if obs.On(p) {
			n.countValueFail(p)
		}
		return false
	}
	return true
}

// numTowerClasses is the number of size classes towers bucket into by
// height: 1, 2-4, 5-8, >= 9 — allocTower's four tower sizes and the
// arena's four recycling classes. Roughly half of all towers are
// height 1 and recycle within their own dense class; the rare tall
// towers never have to wait behind them.
const numTowerClasses = 4

// towerClass maps a height to its arena size class.
func towerClass(h int) int {
	switch {
	case h <= 1:
		return 0
	case h <= 4:
		return 1
	case h <= 8:
		return 2
	default:
		return 3
	}
}

// VB is the value-aware skip list.
type VB struct {
	head   *vbNode
	tail   *vbNode
	seed   atomic.Uint64
	levels int

	// probes, when non-nil, receives contention events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the chaos failpoints (internal/failpoint).
	fps *failpoint.Set
	// arena, when non-nil, recycles unlinked towers into new inserts of
	// their height class after the epoch-based grace period
	// (internal/mem); towers it has none for come from allocTower. Nil
	// delegates lifetimes to the GC.
	arena *mem.Arena[vbNode]

	// Ladder is the failed-validation retry budget and its tally. The
	// skip list's native restart is already the full descent from head,
	// so the ladder is head-native: past K restarts an operation backs
	// off between attempts.
	obs.Ladder
}

// NewVB returns an empty value-aware skip list with DefaultLevels
// index levels.
func NewVB() *VB { return newVB(DefaultLevels, nil) }

// NewVBLevels returns an empty value-aware skip list with the given
// number of levels, clamped to [1, 20]. One level is the flat VBL;
// levels ~ log2 of the expected element count is the classic sizing.
func NewVBLevels(levels int) *VB { return newVB(levels, nil) }

// NewVBArena returns a value-aware skip list whose towers recycle
// through a height-classed arena with epoch-based reclamation. Reuse is
// safe for the same reason as the flat vbl-arena — the protocol is
// lock-based and the per-operation epoch pin keeps every node an
// operation discovered alive (and its val and height immutable)
// until the operation unpins — see DESIGN.md §15.
func NewVBArena() *VB {
	return newVB(DefaultLevels, mem.New[vbNode](mem.Options{Classes: numTowerClasses}))
}

func newVB(levels int, arena *mem.Arena[vbNode]) *VB {
	if levels < 1 {
		levels = 1
	}
	if levels > maxLevel {
		levels = maxLevel
	}
	s := &VB{
		head:   allocTower(MinSentinel, maxLevel),
		tail:   allocTower(MaxSentinel, maxLevel),
		levels: levels,
		arena:  arena,
	}
	for l := 0; l < maxLevel; l++ {
		s.head.at(l).Store(s.tail)
	}
	s.seed.Store(0x9E3779B97F4A7C15)
	return s
}

// Levels returns the working index height.
func (s *VB) Levels() int { return s.levels }

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the set between goroutines.
func (s *VB) SetProbes(p *obs.Probes) {
	s.probes = p
	if a := s.arena; a != nil {
		a.SetProbes(p)
	}
}

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the set between goroutines.
func (s *VB) SetFailpoints(fp *failpoint.Set) {
	s.fps = fp
	if a := s.arena; a != nil {
		a.SetFailpoints(fp)
	}
}

// ArenaStats reports the arena's reclamation counters; ok is false when
// the set is GC-backed.
func (s *VB) ArenaStats() (mem.Stats, bool) {
	if s.arena == nil {
		return mem.Stats{}, false
	}
	return s.arena.Stats(), true
}

// randomHeight draws a capped geometric(1/2) tower height.
func (s *VB) randomHeight() int {
	// splitmix64 over a shared counter: cheap, contention is one
	// uncontended-ish atomic add per insert.
	z := s.seed.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	h := 1 + bits.TrailingZeros64(z|1<<uint(s.levels-1))
	if h > s.levels {
		h = s.levels
	}
	return h
}

// newTower materializes a tower of height h holding v: recycled out of
// the arena's height class when one is attached and the class has a
// tower past its grace period, else fresh from allocTower. A recycled
// tower's levels below h are re-stored by the caller before the level-0
// link publishes it; its state restarts at height h, which the class
// floor guarantees its allocation holds.
func (s *VB) newTower(g mem.Guard[vbNode], v int64, h int) *vbNode {
	if p := s.probes; obs.On(p) {
		p.Inc(obs.EvSkipTowerHeight, int64(h))
	}
	if g.Active() {
		if n := g.ReuseClass(towerClass(h)); n != nil {
			// The tower is recycled: past its grace period no reader
			// holds it, and it is unpublished until the level-0 link
			// after this re-initialization.
			n.val = v
			n.state.Store(heightBits(h))
			return n
		}
	}
	if p := s.probes; obs.On(p) {
		p.Inc(obs.EvNodeAlloc, v)
	}
	return allocTower(v, h)
}

// maybeRetire retires a deleted tower into the arena's limbo once it is
// provably unreachable for new traversals: the remover marked it
// (deleted), the inserter finished its index maintenance (idxDone),
// and every level it was published at — level 0 included — has been
// unlinked again (no linked bit; the remover clears bit 0 only after
// storing the level-0 unlink, so an empty mask happens-after the tower
// became unreachable). Each level is linked at most once per life —
// only the inserter links it — and unlinked at most once, so the mask
// is monotone toward zero after idxDone and the state is stable; one
// CAS from exactly height|deleted|idxDone to …|retired checks
// all three facts in a single atomic step and makes the retirement
// exclusive among the remover, the inserter and the opportunistic
// unlinkers who may all observe it. A tower whose sweep transiently
// missed a level is simply never retired — the GC reclaims it once
// unreachable, it is just not recycled.
func (s *VB) maybeRetire(g mem.Guard[vbNode], n *vbNode) {
	if !g.Active() {
		return
	}
	h := n.height()
	if done := heightBits(h) | stDeleted | stIdxDone; n.state.CompareAndSwap(done, done|stRetired) {
		g.RetireClass(n, towerClass(h))
	}
}

// findFrom locates, at levels top-1 down to 0, the window preds[l].val
// < v <= succs[l].val, and leaves each level's pred in fingers[l]. An
// update walks only the levels it writes: removeFrom passes top = 1,
// insertFrom its new tower's height, Load every level. The walk starts
// at fingers[top-1] when adoptVBFinger trusts it; otherwise — all-nil
// fingers included, as in Insert, Remove and linkIndex's re-find — it
// descends every level from head, as a finger search that adopts each
// level's finger where it is trusted. Two disciplines keep the level-0
// window sound in the face of deferred index unlinking:
//
//   - only nodes observed LIVE during this call are adopted as pred —
//     a deleted index tower is routed through but never anchors the
//     descent, so the level-0 walk always starts from a node that was
//     in the set during the operation (the anchor of the flat list's
//     linearizability argument);
//   - deleted towers encountered on upper levels are opportunistically
//     detached (with a non-blocking try-lock, so navigation never
//     waits).
func (s *VB) findFrom(g mem.Guard[vbNode], v int64, fingers *[maxLevel]*vbNode, top int, preds, succs *[maxLevel]*vbNode) {
	l, pred := top-1, fingers[top-1]
	if top >= s.levels || adoptVBFinger(s.head, pred, v) != pred {
		l, pred = s.levels-1, s.head
	}
	for ; l >= 0; l-- {
		pred = adoptVBFinger(pred, fingers[l], v)
		curr := pred.at(l).Load()
		for curr.val < v {
			if l > 0 && curr.isDeleted() {
				if s.tryUnlinkLevel(g, pred, curr, l) {
					curr = pred.at(l).Load()
				} else {
					curr = curr.at(l).Load() // route through, don't adopt
				}
				continue
			}
			pred = curr
			curr = pred.at(l).Load()
		}
		preds[l], succs[l] = pred, curr
		fingers[l] = pred
	}
}

// adoptVBFinger returns the descent start for one level: the finger
// when it is live and strictly precedes v (and does not sit behind the
// position inherited from the level above), else the inherited pred.
func adoptVBFinger(pred, f *vbNode, v int64) *vbNode {
	if f != nil && f.val >= pred.val && f.val < v && !f.isDeleted() {
		return f
	}
	return pred
}

// tryUnlinkLevel detaches the deleted tower curr from level l if pred's
// lock is immediately available and the window still holds. An injected
// SiteSkipIndexLink failure abandons the attempt like a lost try-lock
// race.
func (s *VB) tryUnlinkLevel(g mem.Guard[vbNode], pred, curr *vbNode, l int) bool {
	if fp := s.fps; failpoint.On(fp) {
		if fp.Fail(failpoint.SiteSkipIndexLink, curr.val) {
			return false
		}
	}
	if pred.isDeleted() || pred.at(l).Load() != curr {
		return false
	}
	if !pred.lock.TryLock() {
		return false
	}
	ok := !pred.isDeleted() && pred.at(l).Load() == curr
	if ok {
		pred.at(l).Store(curr.at(l).Load())
	}
	pred.lock.Unlock()
	if ok {
		curr.clearLinked(l)
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvSkipIndexUnlink, curr.val)
		}
		s.maybeRetire(g, curr)
	}
	return ok
}

// Contains reports whether v is in the set. Wait-free: the index levels
// are used strictly for navigation (a tower matching v at an upper
// level is NOT trusted — it may be a deleted orphan coexisting with a
// fresh live tower for the same value); the verdict is delivered by the
// level-0 walk, where the flat Lazy/VBL linearizability argument
// applies as is. Unlike the flat VBL the deletion mark must be
// consulted, because index unlinking is deferred.
func (s *VB) Contains(v int64) bool {
	g := s.arena.Pin()
	curr := s.descendTo(v)
	found := curr.val == v && !curr.isDeleted()
	g.Unpin()
	return found
}

// Insert adds v to the set and reports whether v was absent:
// insertFrom from zeroed fingers, that is from head.
func (s *VB) Insert(v int64) bool {
	g := s.arena.Pin()
	var fingers [maxLevel]*vbNode
	ok := s.insertFrom(g, v, &fingers, false)
	g.Unpin()
	return ok
}

// Remove deletes v from the set and reports whether v was present:
// removeFrom from zeroed fingers, that is from head.
func (s *VB) Remove(v int64) bool {
	g := s.arena.Pin()
	var fingers [maxLevel]*vbNode
	ok := s.removeFrom(g, v, &fingers, false)
	g.Unpin()
	return ok
}

// insertFrom is the VB insert of key v, descending from fingers (see
// findFrom) and leaving them at the new tower, or at v's window when v
// was present. It reports whether v was absent. The linearization point
// is the level-0 link performed under the value-aware try-lock —
// exactly the flat VBL's insert — after which the upper index levels
// are linked one try-lock at a time. The tower's height h is drawn
// before the walk, which then finds windows only at the h levels the
// tower will be linked at.
//
// A failed level-0 validation restarts with a fresh descent — from the
// fingers the failed descent left, which adoption re-validates, falling
// back to head exactly where they died — so the escalator is
// head-native. batch marks a key of a batch pass (see obs.Ladder.Begin).
func (s *VB) insertFrom(g mem.Guard[vbNode], v int64, fingers *[maxLevel]*vbNode, batch bool) bool {
	esc := s.Begin(s.probes, obs.EvSkipRestartL0, batch)
	h := s.randomHeight()
	// The speculative tower is allocated once and reused across failed
	// validations; it is unpublished until the successful level-0 link,
	// so no traversal can observe the reuse.
	var n *vbNode
	var preds, succs [maxLevel]*vbNode
	for {
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteSkipTraverse, v)
		}
		s.findFrom(g, v, fingers, h, &preds, &succs)
		if succs[0].val == v && succs[0].isDeleted() {
			// v's tower is marked but its remover has not yet stored the
			// level-0 unlink: v is already absent (Contains says so), so
			// reporting it present would not linearize. Re-find.
			esc.Failed(v)
			continue
		}
		if succs[0].val == v {
			if n != nil && g.Active() {
				g.FreeClass(n, towerClass(h)) // never published: no grace period needed
			}
			esc.Done()
			return false
		}
		if n == nil {
			n = s.newTower(g, v, h)
		}
		for l := 0; l < h; l++ {
			n.at(l).Store(succs[l])
		}
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			if injected = fp.Fail(failpoint.SiteSkipLockNextAt, v); injected {
				s.countInjectedFail(obs.EvValFailSucc, v)
			}
		}
		if injected || !preds[0].lockNextAt(0, succs[0], s.probes) {
			esc.Failed(v)
			continue
		}
		n.setLinked(0)
		preds[0].next0.Store(n)
		preds[0].lock.Unlock()
		s.linkIndex(g, n, h, &preds, &succs)
		// The new tower precedes every larger key: it is the tightest
		// finger for every level it was linked at.
		for l := 0; l < h; l++ {
			fingers[l] = n
		}
		esc.Done()
		return true
	}
}

// linkIndex links n's upper levels best-effort after the level-0 link
// published the tower, then finishes the tower's lifecycle
// bookkeeping. preds and succs hold the insert's windows below h; a
// re-find overwrites them. A level that cannot be linked after a
// re-find is skipped — the tower stays findable through level 0
// regardless. The linked bit for a level is set under the
// predecessor's lock BEFORE the link is stored, so the eventual
// unlink's clear always happens-after it (see vbNode).
func (s *VB) linkIndex(g mem.Guard[vbNode], n *vbNode, h int, preds, succs *[maxLevel]*vbNode) {
	v := n.val
index:
	for l := 1; l < h; l++ {
		for attempt := 0; ; attempt++ {
			if n.isDeleted() {
				// A concurrent remove already claimed the node; linking
				// more index levels would only create orphans.
				break index
			}
			n.at(l).Store(succs[l])
			injected := false
			if fp := s.fps; failpoint.On(fp) {
				injected = fp.Fail(failpoint.SiteSkipIndexLink, v)
			}
			if !injected && preds[l].lockNextAt(l, succs[l], s.probes) {
				n.setLinked(l)
				preds[l].at(l).Store(n)
				preds[l].lock.Unlock()
				break
			}
			if p := s.probes; obs.On(p) {
				p.Inc(obs.EvSkipIndexLinkRetry, v)
			}
			if attempt >= 2 {
				// Give up: the index stays sparse at this level. Park the
				// level's pointer on tail rather than leaving the last
				// speculative succ frozen there: descents through a live
				// tower read at(j) for every level below the adoption
				// level, linked or not (bottom-up linking means any such
				// level was processed — linked, or parked here), and once
				// this insert unpins a frozen succ could be unlinked,
				// retired and recycled under a later reader, whose
				// mutated val would break the value-ordered navigation
				// invariant (arena-only: the GC keeps a stale target's
				// val immutable). tail is a terminal the walk treats as
				// "drop a level", which is exactly what a sparse index
				// level means.
				n.at(l).Store(s.tail)
				break
			}
			var fingers [maxLevel]*vbNode // zeroed: re-find from head
			s.findFrom(g, v, &fingers, h, preds, succs)
			if succs[l] == n {
				break // someone (a helper) already linked it
			}
		}
	}
	n.setState(stIdxDone)
	// If a remove raced us, sweep our own index entries, starting each
	// level's search at the pred we linked it behind; whoever of the
	// racers observes the fully-unlinked state retires the tower.
	if n.isDeleted() {
		s.sweep(g, n, preds)
		s.maybeRetire(g, n)
	}
}

// countInjectedFail mirrors a chaos-injected validation failure into
// the probe counters, so consumers of the valfail signal (the report's
// events, the flight recorder) see an injected storm exactly as they
// would a real one.
func (s *VB) countInjectedFail(ev obs.Event, v int64) {
	if p := s.probes; obs.On(p) {
		p.Inc(ev, v)
	}
}

// removeFrom is the VB remove of key v, descending from fingers (see
// findFrom) and leaving them at v's window. It reports whether v was
// present. The level-0 protocol is the flat VBL's remove (value-aware
// lock on the predecessor, identity-validating lock on the victim, mark
// then unlink), and level 0 is all its walk finds; the index levels are
// detached afterwards by sweep, one try-lock at a time, each level's
// search starting from the finger the descent left there. It restarts
// like insertFrom.
func (s *VB) removeFrom(g mem.Guard[vbNode], v int64, fingers *[maxLevel]*vbNode, batch bool) bool {
	esc := s.Begin(s.probes, obs.EvSkipRestartL0, batch)
	var preds, succs [maxLevel]*vbNode
	for {
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteSkipTraverse, v)
		}
		s.findFrom(g, v, fingers, 1, &preds, &succs)
		if succs[0].val != v {
			esc.Done()
			return false
		}
		curr := succs[0]
		next := curr.next0.Load()
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			if injected = fp.Fail(failpoint.SiteSkipLockNextAt, v); injected {
				s.countInjectedFail(obs.EvValFailValue, v)
			}
		}
		if injected || !preds[0].lockNextAtValue(v, s.probes) {
			esc.Failed(v)
			continue
		}
		// Re-read the successor under pred's lock: it is the (possibly
		// different) node holding v whose presence the value validation
		// just established.
		curr = preds[0].next0.Load()
		injected = false
		if fp := s.fps; failpoint.On(fp) {
			if injected = fp.Fail(failpoint.SiteSkipLockNextAt, v); injected {
				s.countInjectedFail(obs.EvValFailSucc, v)
			}
		}
		if injected || !curr.lockNextAt(0, next, s.probes) {
			preds[0].lock.Unlock()
			esc.Failed(v)
			continue
		}
		// The level-0 unlink runs under both locks and must not be
		// skipped, so the site is Do-only: delays and pauses, never
		// forced failure.
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteUnlink, v)
		}
		curr.markDeleted() // logical deletion: v is out, now
		preds[0].next0.Store(next)
		curr.clearLinked(0) // after the unlink store: linked==0 now implies unreachable
		curr.lock.Unlock()
		preds[0].lock.Unlock()
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvLogicalDelete, v)
			p.Inc(obs.EvPhysicalUnlink, v)
		}
		s.sweep(g, curr, fingers)
		s.maybeRetire(g, curr)
		esc.Done()
		return true
	}
}

// sweep detaches a deleted tower from every index level, one
// single-node lock at a time (never holding two locks, so no deadlock).
// hints[l] is where the level-l search for n's predecessor starts: the
// remover's fingers, or the preds linkIndex linked n behind (see
// findPredAtLevel). An injected SiteSkipIndexLink failure abandons the
// level — membership is unaffected, the orphan is collected by later
// traversals.
func (s *VB) sweep(g mem.Guard[vbNode], n *vbNode, hints *[maxLevel]*vbNode) {
	for l := n.height() - 1; l >= 1; l-- {
		for {
			pred, linked := s.findPredAtLevel(g, n, l, hints[l])
			if !linked {
				break // not (or no longer) linked at this level
			}
			if fp := s.fps; failpoint.On(fp) {
				if fp.Fail(failpoint.SiteSkipIndexLink, n.val) {
					break
				}
			}
			if pred.lockNextAt(l, n, s.probes) {
				pred.at(l).Store(n.at(l).Load())
				pred.lock.Unlock()
				n.clearLinked(l)
				if p := s.probes; obs.On(p) {
					p.Inc(obs.EvSkipIndexUnlink, n.val)
				}
				break
			}
			// Window moved or pred deleted; re-locate and retry.
		}
	}
}

// findPredAtLevel locates the node whose level-l successor is exactly
// n; it reports false if n is not linked at level l. It first walks
// level l from hint when adoptVBFinger trusts it (live, below n): a
// hint was reached at level l or handed down from above it, so its
// level l is linked — and stays linked while it lives — or parked on
// tail. Only when that walk does not reach n does it descend the index
// from head (O(log n), not a level scan). The hint only chooses where
// the walk starts; the caller's lockNextAt validates the window either
// way. A deleted tower on the walk is never adopted as pred — its lock
// can never be taken, so a sweep that adopted it would spin forever
// once it is the last active thread (the shard façade's pending-writer
// freeze-out makes that state reachable). Instead the walk helps detach
// it, and when the help fails (lost try-lock race, injected failure)
// it reports false: sweep abandons the level and traversals'
// opportunistic unlinking collects the orphan.
func (s *VB) findPredAtLevel(g mem.Guard[vbNode], n *vbNode, l int, hint *vbNode) (*vbNode, bool) {
	if adoptVBFinger(s.head, hint, n.val) == hint {
		if pred, ok := s.walkToAtLevel(g, hint, n, l); ok {
			return pred, true
		}
	}
	pred := s.head
	for lev := s.levels - 1; lev > l; lev-- {
		curr := pred.at(lev).Load()
		for curr.val < n.val {
			if curr.isDeleted() {
				// Route through without adopting: a deleted pred handed
				// down to the level-l walk would be returned with its
				// lock forever untakeable, and sweep's retry loop would
				// spin on it (fatal when sweep is the only runnable
				// thread — see walkToAtLevel).
				curr = curr.at(lev).Load()
				continue
			}
			pred = curr
			curr = pred.at(lev).Load()
		}
	}
	return s.walkToAtLevel(g, pred, n, l)
}

// walkToAtLevel walks level l from the live pred to n's predecessor,
// helping detach the deleted towers it passes; it reports false when
// it passes n's value without meeting n, or when a help fails.
func (s *VB) walkToAtLevel(g mem.Guard[vbNode], pred, n *vbNode, l int) (*vbNode, bool) {
	for {
		curr := pred.at(l).Load()
		if curr == n {
			return pred, true
		}
		// Equal values can coexist transiently (deleted tower + fresh
		// insert), so walk past non-identical equal values too.
		if curr.val > n.val || curr == s.tail {
			return nil, false
		}
		if curr.isDeleted() {
			if !s.tryUnlinkLevel(g, pred, curr, l) {
				return nil, false
			}
			continue // re-read pred's level-l successor
		}
		pred = curr
	}
}

// Len counts the live elements by a level-0 traversal; exact at
// quiescence.
func (s *VB) Len() int {
	g := s.arena.Pin()
	n := 0
	for curr := s.head.next0.Load(); curr.val != MaxSentinel; curr = curr.next0.Load() {
		if !curr.isDeleted() {
			n++
		}
	}
	g.Unpin()
	return n
}

// Snapshot returns the live elements in ascending order; exact at
// quiescence.
func (s *VB) Snapshot() []int64 {
	g := s.arena.Pin()
	var out []int64
	for curr := s.head.next0.Load(); curr.val != MaxSentinel; curr = curr.next0.Load() {
		if !curr.isDeleted() {
			out = append(out, curr.val)
		}
	}
	g.Unpin()
	return out
}

var (
	_ obs.Instrumented     = (*VB)(nil)
	_ obs.RetryBudgeted    = (*VB)(nil)
	_ failpoint.Injectable = (*VB)(nil)
)
