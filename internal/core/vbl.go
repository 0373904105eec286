// Package core implements the paper's primary contribution: the VBL
// (Value-Based List) concurrency-optimal list-based set of Aksenov,
// Gramoli, Kuznetsov, Shang and Ravi (PACT 2021), Algorithm 2.
//
// VBL combines three ingredients:
//
//   - the wait-free traversal of the Lazy list: readers (and the locate
//     phase of updates) follow next pointers without taking locks or
//     consulting deletion marks;
//   - the logical-deletion technique of Harris-Michael: removal first
//     marks a node deleted and only then unlinks it, so concurrent
//     traversals parked on the node stay on a well-defined path;
//   - a novel value-aware try-lock: an update acquires a per-node
//     CAS-based lock and then validates the successor either by identity
//     (lockNextAt) or by value (lockNextAtValue), releasing the lock and
//     restarting the traversal from prev on mismatch.
//
// Validating by value is what makes the list concurrency-optimal: a
// remove(v) whose successor node was removed and re-inserted by other
// threads can still proceed, because all that matters to the set's
// semantics is that *some* node holding v follows prev.
//
// Memory reclamation is delegated to the Go garbage collector, exactly as
// the paper delegates it to the Java GC: an unlinked node remains valid
// for the traversals still standing on it until it becomes unreachable.
// Alternatively, NewArena (or the WithArena option) attaches a
// slab-backed arena with epoch-based reclamation (internal/mem):
// unlinked nodes are retired and recycled after a two-epoch grace
// period, trading the GC's allocation and scan costs for a pin/unpin
// pair per operation. Reuse is safe precisely because VBL is
// lock-based and value-validating — see arena.go and DESIGN.md §10.
package core

import (
	"sync/atomic"
	"unsafe"

	"listset/internal/failpoint"
	"listset/internal/mem"
	"listset/internal/obs"
	"listset/internal/trylock"
)

// Sentinel values stored in the head and tail nodes; they represent the
// paper's -inf/+inf and cannot be inserted.
const (
	MinSentinel = -1 << 63
	MaxSentinel = 1<<63 - 1
)

// node is a list node. val is immutable; next and deleted are read by
// wait-free traversals while being written by lock holders, so both are
// atomics. lock serializes writers of next and deleted.
type node struct {
	val     int64
	next    atomic.Pointer[node]
	deleted atomic.Bool
	lock    trylock.SpinLock
}

// cacheLine is the coherence granularity the sentinel layout targets;
// 64 bytes covers x86-64 and the common arm64 parts.
const cacheLine = 64

// paddedNode embeds a node and rounds its size up to a whole number of
// cache lines. Only the sentinels are allocated this way: interior
// nodes are numerous and churn through the GC, but the head is the
// hottest allocation in the structure — every operation's traversal
// starts by loading head.next, and updates near the front contend on
// head.lock. An unpadded head (a ~40-byte allocation) can share its
// line with a neighbouring small object — in particular with another
// list's head when many lists sit side by side (internal/shard) —
// turning independent per-list traffic into false sharing.
type paddedNode struct {
	node
	_ [(cacheLine - unsafe.Sizeof(node{})%cacheLine) % cacheLine]byte
}

// newSentinel allocates one cache-line-padded sentinel node.
func newSentinel(v int64) *node {
	p := &paddedNode{node: node{val: v}}
	return &p.node
}

// lockNextAt implements the identity-validating half of the value-aware
// try-lock (Section 3.1, operation (1)): acquire n's lock, then verify
// that n is not logically deleted and that n.next still points at succ.
// On validation failure the lock is released and false is returned.
//
// A cheap lock-free pre-validation runs first (unless disabled by the
// WithoutPreValidation ablation): if the condition already fails there
// is no point bouncing the lock's cache line. This is the "validate
// before locking, not after" property the paper credits for VBL's
// behaviour under contention.
func (n *node) lockNextAt(succ *node, preValidate bool, p *obs.Probes) bool {
	if preValidate && (n.deleted.Load() || n.next.Load() != succ) {
		if obs.On(p) {
			n.countIdentityFail(p)
		}
		return false
	}
	n.acquire(p)
	if n.deleted.Load() || n.next.Load() != succ {
		n.lock.Unlock()
		if obs.On(p) {
			n.countIdentityFail(p)
		}
		return false
	}
	return true
}

// acquire takes n's lock, counting a contended acquisition when probes
// are attached. Like the lock helpers it wraps, it returns holding the
// lock by contract.
func (n *node) acquire(p *obs.Probes) {
	if obs.On(p) {
		if n.lock.LockContended() {
			p.Inc(obs.EvTryLockContended, n.val)
		}
		return
	}
	n.lock.Lock()
}

// countIdentityFail classifies a failed identity validation for the
// probe report: the locked-for node was logically deleted, or its
// successor changed. The re-read is racy — a borderline case may be
// classified either way — which is fine for a counter.
func (n *node) countIdentityFail(p *obs.Probes) {
	if n.deleted.Load() {
		p.Inc(obs.EvValFailDeleted, n.val)
	} else {
		p.Inc(obs.EvValFailSucc, n.val)
	}
}

// countValueFail classifies a failed value validation analogously.
func (n *node) countValueFail(p *obs.Probes) {
	if n.deleted.Load() {
		p.Inc(obs.EvValFailDeleted, n.val)
	} else {
		p.Inc(obs.EvValFailValue, n.val)
	}
}

// countInjectedFail mirrors a chaos-injected validation failure into
// the probe counters. An injected failure short-circuits the real
// validation, so without this the fault would be observationally
// invisible — consumers of the valfail signal (the report's events,
// the flight recorder) must see an injected storm exactly as they
// would a real one.
func (s *VBL) countInjectedFail(ev obs.Event, v int64) {
	if p := s.probes; obs.On(p) {
		p.Inc(ev, v)
	}
}

// lockNextAtValue implements the value-validating half of the try-lock
// (Section 3.1, operation (2)): acquire n's lock, then verify that n is
// not logically deleted and that the *value* of n's successor is v. The
// successor node's identity is allowed to have changed — that is the
// value-awareness that distinguishes VBL from the Lazy list.
func (n *node) lockNextAtValue(v int64, preValidate bool, p *obs.Probes) bool {
	if preValidate && (n.deleted.Load() || n.next.Load().val != v) {
		if obs.On(p) {
			n.countValueFail(p)
		}
		return false
	}
	n.acquire(p)
	if n.deleted.Load() || n.next.Load().val != v {
		n.lock.Unlock()
		if obs.On(p) {
			n.countValueFail(p)
		}
		return false
	}
	return true
}

// VBL is the Value-Based List. The zero value is not usable; call New.
type VBL struct {
	head *node
	tail *node

	// Ablation knobs (see Option); both false for the paper's algorithm.
	headRestart   bool // restart failed validations from head, not prev
	noPreValidate bool // skip the lock-free check before locking

	// probes, when non-nil, receives contention events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the chaos failpoints (internal/failpoint).
	fps *failpoint.Set
	// arena, when non-nil, supplies nodes from slab-backed per-worker
	// free lists and recycles unlinked nodes after the epoch-based
	// grace period (internal/mem). Nil delegates lifetimes to the GC.
	arena *mem.Arena[node]

	// budget is the failed-validation retry budget K (0 = the paper's
	// unbounded retries), atomic so it may be set while operations are
	// in flight; retry aggregates what the escalators saw.
	budget atomic.Int32
	retry  obs.RetryCounter
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the set between goroutines: the
// field is read without synchronization by every operation.
func (s *VBL) SetProbes(p *obs.Probes) {
	s.probes = p
	if a := s.arena; a != nil {
		a.SetProbes(p)
	}
}

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the set between goroutines.
func (s *VBL) SetFailpoints(fp *failpoint.Set) {
	s.fps = fp
	if a := s.arena; a != nil {
		a.SetFailpoints(fp)
	}
}

// SetRetryBudget sets the failed-validation retry budget K: after K
// restarts an update escalates from the prev-restart to head-restarts,
// and after 2K it also backs off between attempts. 0 restores the
// paper's unbounded retry loop. The budget is atomic: it may be
// retuned while the set is shared (each in-flight operation keeps the
// budget it started with).
func (s *VBL) SetRetryBudget(k int) { s.budget.Store(int32(k)) }

// RetryStats reports the aggregated restart/escalation tallies.
func (s *VBL) RetryStats() obs.RetryStats { return s.retry.Stats() }

// New returns an empty VBL set.
func New() *VBL {
	s := &VBL{
		head: newSentinel(MinSentinel),
		tail: newSentinel(MaxSentinel),
	}
	s.head.next.Store(s.tail)
	return s
}

// traverse is the waitfreeTraversal of Algorithm 2 (lines 14-21): starting
// from prev — or from head if prev has been logically deleted since the
// caller last held it — follow next pointers until curr.val >= v, taking
// no locks and ignoring deletion marks along the way.
//
// Restarting from prev rather than head after a failed validation is the
// paper's locality optimization: the failed window is almost always
// adjacent to where the conflict happened.
func (s *VBL) traverse(v int64, prev *node) (*node, *node) {
	if prev.deleted.Load() {
		prev = s.head
	}
	curr := prev.next.Load()
	for curr.val < v {
		prev = curr
		curr = curr.next.Load()
	}
	return prev, curr
}

// Contains reports whether v is in the set (Algorithm 2, lines 9-13).
// It is wait-free: a pure pointer chase with no locks and no mark checks.
//
// Linearization: at the read of the next pointer that first reached a
// node with value >= v (for hits, the node holding v was reachable at
// that moment or was logically deleted after the traversal passed its
// predecessor, in which case the operation linearizes just before the
// delete's mark).
func (s *VBL) Contains(v int64) bool {
	g := s.arena.Pin()
	curr := s.head
	for curr.val < v {
		curr = curr.next.Load()
	}
	found := curr.val == v
	g.Unpin()
	return found
}

// Insert adds v to the set and reports whether v was absent
// (Algorithm 2, lines 22-32): insertFrom started from head.
func (s *VBL) Insert(v int64) bool {
	g := s.arena.Pin()
	_, n, _ := s.insertFrom(g, s.head, v, nil)
	g.Unpin()
	return n > 0
}

// Remove deletes v from the set and reports whether v was present
// (Algorithm 2, lines 33-48): removeFrom started from head.
func (s *VBL) Remove(v int64) bool {
	g := s.arena.Pin()
	_, ok, _ := s.removeFrom(g, s.head, v)
	g.Unpin()
	return ok
}

// insertFrom is VBL's insert protocol (Algorithm 2, lines 22-32) for
// key v, traversing from prev: head for Insert, the pass's anchor for
// InsertAll. While prev's lock is held with the window (prev, curr)
// validated, every key of rest — ascending, all above v — that falls
// below curr.val is provably absent too, so it is linked in the same
// store: k' inserts for one lock acquisition, linearizing in ascending
// order at that store. It returns the next anchor (a node preceding
// every key after those consumed), how many keys it inserted — 0 when
// v was present, in which case only v is consumed — and how many
// failed validations it restarted after.
func (s *VBL) insertFrom(g mem.Guard[node], prev *node, v int64, rest []int64) (anchor *node, inserted, restarts int) {
	esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: s.headRestart}
	// The speculative node is allocated once and reused across failed
	// validations; it is unpublished until the successful link, so no
	// traversal can observe the reuse.
	var n *node
	for {
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteVBLTraverse, v)
		}
		var curr *node
		prev, curr = s.traverse(v, prev)
		if curr.val == v {
			// Present already: return without touching any metadata.
			// (The Lazy list would have locked prev first — this early
			// return is exactly the schedule of Figure 2 that Lazy
			// rejects and VBL accepts.) The node holding v precedes
			// every larger key: it is the next anchor.
			if n != nil && g.Active() {
				g.Free(n) // never published: no grace period needed
			}
			esc.Done(&s.retry)
			return curr, 0, esc.Restarts()
		}
		if n == nil {
			n = s.newNode(g, v)
		}
		n.next.Store(curr)
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			if injected = fp.Fail(failpoint.SiteVBLLockNextAt, v); injected {
				s.countInjectedFail(obs.EvValFailSucc, v)
			}
		}
		if injected || !prev.lockNextAt(curr, !s.noPreValidate, s.probes) {
			prev = s.restart(prev, &esc, v)
			continue // revalidate from prev (traverse handles deleted prev)
		}
		tail := n
		inserted = 1
		for _, k := range rest {
			if k >= curr.val {
				break
			}
			m := s.newNode(g, k)
			m.next.Store(curr)
			tail.next.Store(m)
			tail = m
			inserted++
		}
		prev.next.Store(n)
		prev.lock.Unlock()
		esc.Done(&s.retry)
		// The chain's tail precedes every remaining key (its value is
		// below curr.val), so it is the next anchor.
		return tail, inserted, esc.Restarts()
	}
}

// restart applies the restart policy after a failed validation — the
// paper's prev-restart, the ablation's head-restart, or the escalation
// ladder's forced head-restart once the retry budget is spent — and
// records the restart, split by where the retry resumes (the paper's
// locality optimization is exactly the prev-vs-head distinction).
func (s *VBL) restart(prev *node, esc *obs.Escalator, v int64) *node {
	head := esc.Failed(s.probes, v)
	if s.headRestart {
		head = true
	}
	if p := s.probes; obs.On(p) {
		if head {
			p.Inc(obs.EvRestartHead, v)
		} else {
			p.Inc(obs.EvRestartPrev, v)
		}
	}
	if head {
		return s.head
	}
	return prev
}

// removeFrom is VBL's remove protocol (Algorithm 2, lines 33-48) for
// key v, traversing from prev: head for Remove, the pass's anchor for
// RemoveAll. It returns the next anchor (the final prev, which
// precedes every larger key), whether v was present, and how many
// failed validations it restarted after.
func (s *VBL) removeFrom(g mem.Guard[node], prev *node, v int64) (anchor *node, removed bool, restarts int) {
	esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: s.headRestart}
	for {
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteVBLTraverse, v)
		}
		var curr *node
		prev, curr = s.traverse(v, prev)
		if curr.val != v {
			esc.Done(&s.retry)
			return prev, false, esc.Restarts()
		}
		next := curr.next.Load()
		// Lock prev validating BY VALUE: any node holding v will do,
		// even if the one we saw during traversal was removed and a new
		// one inserted meanwhile.
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			if injected = fp.Fail(failpoint.SiteVBLLockNextAtValue, v); injected {
				s.countInjectedFail(obs.EvValFailValue, v)
			}
		}
		if injected || !prev.lockNextAtValue(v, !s.noPreValidate, s.probes) {
			prev = s.restart(prev, &esc, v)
			continue
		}
		// Re-read the successor under prev's lock (Algorithm 2, line 40):
		// it is the (possibly different) node holding v whose presence
		// the validation just established. It cannot change or become
		// deleted while we hold prev's lock, because both require
		// locking prev.
		curr = prev.next.Load()
		// Lock curr validating that its successor is still the next read
		// at line 38, so the unlink below cannot lose a concurrent
		// insert after curr (line 41).
		injected = false
		if fp := s.fps; failpoint.On(fp) {
			if injected = fp.Fail(failpoint.SiteVBLLockNextAt, v); injected {
				s.countInjectedFail(obs.EvValFailSucc, v)
			}
		}
		if injected || !curr.lockNextAt(next, !s.noPreValidate, s.probes) {
			prev.lock.Unlock()
			prev = s.restart(prev, &esc, v)
			continue
		}
		// The unlink itself runs under both locks and must not be skipped
		// — a missing unlink would leave a marked node reachable — so the
		// site is Do-only: delays and pauses, never forced failure.
		if fp := s.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteUnlink, v)
		}
		curr.deleted.Store(true) // logical deletion
		prev.next.Store(next)    // physical unlink
		curr.lock.Unlock()
		prev.lock.Unlock()
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvLogicalDelete, v)
			p.Inc(obs.EvPhysicalUnlink, v)
		}
		if g.Active() {
			// curr is unlinked (unreachable for new traversals) and its
			// lock is free again: retire it into limbo. It recycles only
			// after the two-epoch grace period, so the pinned traversals
			// that may still stand on it stay safe.
			g.Retire(curr)
		}
		esc.Done(&s.retry)
		return prev, true, esc.Restarts()
	}
}

// Len counts the elements by traversal. Under concurrent updates the
// result is a best-effort snapshot; it is exact at quiescence. O(n).
func (s *VBL) Len() int {
	g := s.arena.Pin()
	n := 0
	for curr := s.head.next.Load(); curr.val != MaxSentinel; curr = curr.next.Load() {
		n++
	}
	g.Unpin()
	return n
}

// Snapshot returns the elements reachable from head in ascending order.
// Under concurrent updates it is a best-effort snapshot; it is exact at
// quiescence.
func (s *VBL) Snapshot() []int64 {
	g := s.arena.Pin()
	var out []int64
	for curr := s.head.next.Load(); curr.val != MaxSentinel; curr = curr.next.Load() {
		out = append(out, curr.val)
	}
	g.Unpin()
	return out
}
