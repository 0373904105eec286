package skiplist

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/trylock"
)

// Lazy is the LazySkipList of Herlihy & Shavit (ch. 14.3), the
// established lock-based skip list and the natural baseline for the
// value-aware variant: an update finds its per-level windows, locks
// EVERY distinct predecessor, validates after locking, and only then
// decides — the skip-list analogue of the Lazy list's discipline the
// paper proves concurrency sub-optimal.
type Lazy struct {
	head   *lazyNode
	tail   *lazyNode
	seed   atomic.Uint64
	levels int

	// probes, when non-nil, receives contention events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the chaos failpoints (internal/failpoint).
	fps *failpoint.Set

	// budget is the failed-validation retry budget K (0 = unbounded),
	// atomic so it may be set mid-run; retry
	// aggregates what the escalators saw. Lazy's restart is always the
	// full descent from head, so the ladder is head-native.
	budget atomic.Int32
	retry  obs.RetryCounter
}

// lazyNode is a tower. marked is the logical-deletion flag;
// fullyLinked is set once the tower is linked at every level, making
// the element logically present (the linearization point of insert).
type lazyNode struct {
	val         int64
	height      int
	next        [maxLevel]atomic.Pointer[lazyNode]
	marked      atomic.Bool
	fullyLinked atomic.Bool
	lock        trylock.SpinLock
}

// NewLazy returns an empty Lazy skip list with DefaultLevels index
// levels.
func NewLazy() *Lazy { return NewLazyLevels(DefaultLevels) }

// NewLazyLevels returns an empty Lazy skip list with the given number
// of levels, clamped to [1, 20].
func NewLazyLevels(levels int) *Lazy {
	if levels < 1 {
		levels = 1
	}
	if levels > maxLevel {
		levels = maxLevel
	}
	s := &Lazy{
		head:   &lazyNode{val: MinSentinel, height: maxLevel},
		tail:   &lazyNode{val: MaxSentinel, height: maxLevel},
		levels: levels,
	}
	for l := 0; l < maxLevel; l++ {
		s.head.next[l].Store(s.tail)
	}
	s.head.fullyLinked.Store(true)
	s.tail.fullyLinked.Store(true)
	s.seed.Store(0x2545F4914F6CDD1D)
	return s
}

// Levels returns the working index height.
func (s *Lazy) Levels() int { return s.levels }

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the set between goroutines.
func (s *Lazy) SetProbes(p *obs.Probes) { s.probes = p }

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the set between goroutines.
func (s *Lazy) SetFailpoints(fp *failpoint.Set) { s.fps = fp }

// SetRetryBudget sets the failed-validation retry budget K: past K
// restarts an update backs off between attempts. 0 restores unbounded
// retries.
func (s *Lazy) SetRetryBudget(k int) { s.budget.Store(int32(k)) }

// RetryStats reports the aggregated restart/escalation tallies.
func (s *Lazy) RetryStats() obs.RetryStats { return s.retry.Stats() }

func (s *Lazy) randomHeight() int {
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

// findFrom fills preds/succs at every level, leaving each level's
// pred in fingers[l], and returns the highest level at which a tower
// holding v was found (-1 if none). Wait-free. A finger seeds its
// level's walk when adoptLazyFinger trusts it, so all-nil fingers —
// Insert's, Remove's and Contains's — descend from head, and a batch
// pass's fingers turn the descent into a finger search.
func (s *Lazy) findFrom(v int64, fingers *[maxLevel]*lazyNode) (preds, succs [maxLevel]*lazyNode, lFound int) {
	lFound = -1
	pred := s.head
	for l := s.levels - 1; l >= 0; l-- {
		pred = adoptLazyFinger(pred, fingers[l], v)
		curr := pred.next[l].Load()
		for curr.val < v {
			pred = curr
			curr = pred.next[l].Load()
		}
		if lFound == -1 && curr.val == v {
			lFound = l
		}
		preds[l], succs[l] = pred, curr
		fingers[l] = pred
	}
	return preds, succs, lFound
}

// adoptLazyFinger is the Lazy twin of adoptVBFinger: a finger is
// trusted while unmarked (marked towers may already be unlinked).
func adoptLazyFinger(pred, f *lazyNode, v int64) *lazyNode {
	if f != nil && f.val >= pred.val && f.val < v && !f.marked.Load() {
		return f
	}
	return pred
}

// Contains reports whether v is in the set: wait-free, trusting the
// found tower's fullyLinked and marked flags (Herlihy & Shavit's
// linearization argument).
func (s *Lazy) Contains(v int64) bool {
	var fingers [maxLevel]*lazyNode
	_, succs, lFound := s.findFrom(v, &fingers)
	return lFound != -1 &&
		succs[lFound].fullyLinked.Load() &&
		!succs[lFound].marked.Load()
}

// acquire takes n's lock, counting a contended acquisition when probes
// are attached.
func (s *Lazy) acquire(n *lazyNode) {
	if p := s.probes; obs.On(p) {
		if n.lock.LockContended() {
			p.Inc(obs.EvTryLockContended, n.val)
		}
		return
	}
	n.lock.Lock()
}

// lockPreds locks the distinct predecessors of levels [0, top] in
// bottom-up order — which is decreasing-key order, the global order
// that makes the algorithm deadlock-free — and validates every window;
// on validation failure everything is unlocked and ok is false.
//
// victim, when non-nil, is the tower the caller itself marked for
// removal: windows onto it are validated by adjacency only (its mark is
// the caller's own doing). For inserts victim is nil and a marked
// successor invalidates the window.
func (s *Lazy) lockPreds(preds, succs *[maxLevel]*lazyNode, top int, victim *lazyNode) bool {
	var prevPred *lazyNode
	locked := make([]*lazyNode, 0, top+1)
	valid := true
	deletedFail := false
	for l := 0; valid && l <= top; l++ {
		pred, succ := preds[l], succs[l]
		if pred != prevPred {
			//lint:ignore locksafe the acquired set intentionally survives the loop and the function: on success the caller holds every lock in `locked` and releases them with unlockPreds; on failure the loop below unlocks them all
			s.acquire(pred)
			locked = append(locked, pred)
			prevPred = pred
		}
		valid = !pred.marked.Load() && pred.next[l].Load() == succ &&
			(succ == victim || !succ.marked.Load())
		if !valid {
			deletedFail = pred.marked.Load() || (succ != victim && succ.marked.Load())
		}
	}
	// An injected validation failure exercises the full-height
	// unlock-and-restart path, the expensive one the value-aware variant
	// avoids.
	if fp := s.fps; failpoint.On(fp) && valid && fp.Fail(failpoint.SiteLazyValidate, succs[0].val) {
		valid, deletedFail = false, false
	}
	if valid {
		return true
	}
	for _, p := range locked {
		p.lock.Unlock()
	}
	if p := s.probes; obs.On(p) {
		if deletedFail {
			p.Inc(obs.EvValFailDeleted, succs[0].val)
		} else {
			p.Inc(obs.EvValFailSucc, succs[0].val)
		}
	}
	return false
}

// unlockPreds releases the distinct predecessors of levels [0, top].
func unlockPreds(preds *[maxLevel]*lazyNode, top int) {
	var prevPred *lazyNode
	for l := 0; l <= top; l++ {
		if preds[l] != prevPred {
			preds[l].lock.Unlock()
			prevPred = preds[l]
		}
	}
}

// restart records one failed validation; the Lazy skip list always
// restarts with a full descent from head.
func (s *Lazy) restart(esc *obs.Escalator, v int64) {
	esc.Failed(s.probes, v)
	if p := s.probes; obs.On(p) {
		p.Inc(obs.EvRestartHead, v)
	}
}

// Insert adds v to the set and reports whether v was absent:
// insertFrom from zeroed fingers, that is from head.
func (s *Lazy) Insert(v int64) bool {
	var fingers [maxLevel]*lazyNode
	return s.insertFrom(v, &fingers)
}

// Remove deletes v from the set and reports whether v was present:
// removeFrom from zeroed fingers, that is from head.
func (s *Lazy) Remove(v int64) bool {
	var fingers [maxLevel]*lazyNode
	return s.removeFrom(v, &fingers)
}

// insertFrom is the Lazy skip list's insert of key v, descending from
// fingers (see findFrom) and leaving them at the new tower, or at v's
// windows when v was present. It reports whether v was absent.
func (s *Lazy) insertFrom(v int64, fingers *[maxLevel]*lazyNode) bool {
	esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: true}
	h := s.randomHeight()
	for {
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteSkipTraverse, v)
		}
		preds, succs, lFound := s.findFrom(v, fingers)
		if lFound != -1 {
			found := succs[lFound]
			if !found.marked.Load() {
				// Present (or being inserted): wait for the in-flight
				// insert to finish, then report a duplicate.
				for !found.fullyLinked.Load() {
					runtime.Gosched()
				}
				esc.Done(&s.retry)
				return false
			}
			// Found a marked tower mid-removal: retry until it is gone.
			s.restart(&esc, v)
			continue
		}
		if !s.lockPreds(&preds, &succs, h-1, nil) {
			s.restart(&esc, v)
			continue
		}
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvNodeAlloc, v)
			p.Inc(obs.EvSkipTowerHeight, int64(h))
		}
		//lint:ignore hotalloc the insert path must materialize the new tower; the Lazy skip list has no arena mode (vbskip-arena is the reclaiming variant)
		n := &lazyNode{val: v, height: h}
		for l := 0; l < h; l++ {
			n.next[l].Store(succs[l])
		}
		for l := 0; l < h; l++ {
			preds[l].next[l].Store(n)
		}
		n.fullyLinked.Store(true) // linearization point
		unlockPreds(&preds, h-1)
		for l := 0; l < h; l++ {
			fingers[l] = n
		}
		esc.Done(&s.retry)
		return true
	}
}

// removeFrom is the Lazy skip list's remove of key v, descending from
// fingers (see findFrom) and leaving them at v's windows. It reports
// whether v was present.
func (s *Lazy) removeFrom(v int64, fingers *[maxLevel]*lazyNode) bool {
	esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: true}
	var victim *lazyNode
	marked := false
	for {
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteSkipTraverse, v)
		}
		preds, succs, lFound := s.findFrom(v, fingers)
		if !marked {
			if lFound == -1 {
				esc.Done(&s.retry)
				return false
			}
			victim = succs[lFound]
			if !victim.fullyLinked.Load() ||
				victim.marked.Load() ||
				victim.height-1 != lFound {
				// Mid-insert, mid-removal by a competitor, or found via
				// a partial tower: not removable by us (the paper's
				// Harris analysis would call this an extra
				// synchronization constraint).
				if victim.marked.Load() {
					esc.Done(&s.retry)
					return false
				}
				s.restart(&esc, v)
				continue
			}
			//lint:ignore locksafe the victim lock is intentionally held across retry iterations once marked (the `marked` flag guards re-locking) and is released on the success path below
			s.acquire(victim)
			if victim.marked.Load() {
				victim.lock.Unlock()
				esc.Done(&s.retry)
				return false
			}
			victim.marked.Store(true) // linearization point
			marked = true
			if p := s.probes; obs.On(p) {
				p.Inc(obs.EvLogicalDelete, v)
			}
		}
		if !s.lockPreds(&preds, &succs, victim.height-1, victim) {
			s.restart(&esc, v)
			continue
		}
		// The unlink runs under every predecessor lock and must not be
		// skipped, so the site is Do-only: delays and pauses, never
		// forced failure.
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteUnlink, v)
		}
		for l := victim.height - 1; l >= 0; l-- {
			preds[l].next[l].Store(victim.next[l].Load())
		}
		victim.lock.Unlock()
		unlockPreds(&preds, victim.height-1)
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvPhysicalUnlink, v)
		}
		esc.Done(&s.retry)
		return true
	}
}

// Len counts the live elements by a level-0 traversal; exact at
// quiescence.
func (s *Lazy) Len() int {
	n := 0
	for curr := s.head.next[0].Load(); curr.val != MaxSentinel; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Snapshot returns the live elements in ascending order; exact at
// quiescence.
func (s *Lazy) Snapshot() []int64 {
	var out []int64
	for curr := s.head.next[0].Load(); curr.val != MaxSentinel; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			out = append(out, curr.val)
		}
	}
	return out
}

var (
	_ obs.Instrumented     = (*Lazy)(nil)
	_ obs.RetryBudgeted    = (*Lazy)(nil)
	_ failpoint.Injectable = (*Lazy)(nil)
)
