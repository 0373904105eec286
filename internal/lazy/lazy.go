// Package lazy implements the Lazy Linked List of Heller, Herlihy,
// Luchangco, Moir, Scherer and Shavit (OPODIS 2006), the lock-based
// state-of-the-art baseline the paper compares VBL against.
//
// The algorithm follows "The Art of Multiprocessor Programming", ch. 9:
// traversals are wait-free; an update locates the window (prev, curr),
// locks BOTH nodes, and only then validates that prev is not marked, curr
// is not marked, and prev.next == curr. Crucially — and this is the
// concurrency sub-optimality the paper exploits (Figure 2) — the locks
// are acquired before the operation knows whether it will modify the
// list at all: a failed insert (value already present) and a failed
// remove (value absent) still serialize on prev's and curr's locks.
//
// Removal is lazy: the node is first marked (logical deletion), then
// unlinked (physical deletion); contains checks the mark of the node it
// lands on.
package lazy

import (
	"sync/atomic"
	"unsafe"

	"listset/internal/failpoint"
	"listset/internal/mem"
	"listset/internal/obs"
	"listset/internal/trylock"
)

// Sentinel values stored in the head and tail nodes.
const (
	MinSentinel = -1 << 63
	MaxSentinel = 1<<63 - 1
)

type node struct {
	val    int64
	next   atomic.Pointer[node]
	marked atomic.Bool
	lock   trylock.SpinLock
}

// cacheLine is the coherence granularity the sentinel layout targets.
const cacheLine = 64

// paddedNode rounds a node up to a whole number of cache lines; the
// two sentinels are allocated this way so the head's hot fields (next,
// lock) never share a line with the tail or a neighbouring allocation
// — in particular with another list's head when many Lazy lists sit
// side by side behind the internal/shard partitioner.
type paddedNode struct {
	node
	_ [(cacheLine - unsafe.Sizeof(node{})%cacheLine) % cacheLine]byte
}

// newSentinel allocates one cache-line-padded sentinel node.
func newSentinel(v int64) *node {
	p := &paddedNode{node: node{val: v}}
	return &p.node
}

// List is the Lazy Linked List.
type List struct {
	head *node
	tail *node

	// probes, when non-nil, receives contention events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the chaos failpoints (internal/failpoint).
	fps *failpoint.Set
	// arena, when non-nil, supplies nodes from slab-backed per-worker
	// free lists and recycles unlinked nodes after the epoch-based
	// grace period (internal/mem). Nil delegates lifetimes to the GC.
	arena *mem.Arena[node]

	// budget is the failed-validation retry budget K (0 = unbounded
	// retries), atomic so it may be set mid-run; retry aggregates what
	// the escalators saw.
	// Lazy's native restart already goes to head, so the ladder's only
	// live stage is the backoff, which begins at K.
	budget atomic.Int32
	retry  obs.RetryCounter
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the list between goroutines.
func (l *List) SetProbes(p *obs.Probes) {
	l.probes = p
	if a := l.arena; a != nil {
		a.SetProbes(p)
	}
}

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the list between goroutines.
func (l *List) SetFailpoints(fp *failpoint.Set) {
	l.fps = fp
	if a := l.arena; a != nil {
		a.SetFailpoints(fp)
	}
}

// SetRetryBudget sets the failed-validation retry budget K: past K
// restarts an update backs off between attempts. 0 restores unbounded
// retries. The budget is atomic and may be retuned while the list is
// shared; in-flight operations keep the budget they started with.
func (l *List) SetRetryBudget(k int) { l.budget.Store(int32(k)) }

// RetryStats reports the aggregated restart/escalation tallies.
func (l *List) RetryStats() obs.RetryStats { return l.retry.Stats() }

// New returns an empty Lazy list.
func New() *List {
	l := &List{
		head: newSentinel(MinSentinel),
		tail: newSentinel(MaxSentinel),
	}
	l.head.next.Store(l.tail)
	return l
}

// findFrom traverses from the anchor — or from head if the anchor has
// been marked since the caller last held it — without locks or mark
// checks, and returns the window (prev, curr) with prev.val < v <=
// curr.val.
func (l *List) findFrom(anchor *node, v int64) (prev, curr *node) {
	prev = anchor
	if prev.marked.Load() {
		prev = l.head
	}
	curr = prev.next.Load()
	for curr.val < v {
		prev = curr
		curr = curr.next.Load()
	}
	return prev, curr
}

// validate re-checks the locked window: neither node is marked and they
// are still adjacent. Per the original algorithm this runs AFTER the
// locks are taken.
func validate(prev, curr *node) bool {
	return !prev.marked.Load() && !curr.marked.Load() && prev.next.Load() == curr
}

// lockWindow locks prev then curr, counting contended acquisitions
// when probes are attached. It returns holding both locks by contract;
// the callers release them on every path.
func (l *List) lockWindow(prev, curr *node) {
	if p := l.probes; obs.On(p) {
		if prev.lock.LockContended() {
			p.Inc(obs.EvTryLockContended, prev.val)
		}
		if curr.lock.LockContended() {
			p.Inc(obs.EvTryLockContended, curr.val)
		}
		return
	}
	prev.lock.Lock()
	curr.lock.Lock()
}

// countValFail classifies a failed window validation for the probe
// report: a marked node (logical deletion won the race) or a changed
// successor. The re-read is racy; a counter tolerates that. Every Lazy
// validation failure restarts from head — the locality the paper's VBL
// recovers with its prev-restart.
func (l *List) countValFail(prev, curr *node, v int64) {
	if p := l.probes; obs.On(p) {
		if prev.marked.Load() || curr.marked.Load() {
			p.Inc(obs.EvValFailDeleted, curr.val)
		} else {
			p.Inc(obs.EvValFailSucc, curr.val)
		}
		p.Inc(obs.EvRestartHead, v)
	}
}

// Contains reports whether v is in the set. Wait-free.
func (l *List) Contains(v int64) bool {
	g := l.arena.Pin()
	curr := l.head
	for curr.val < v {
		curr = curr.next.Load()
	}
	found := curr.val == v && !curr.marked.Load()
	g.Unpin()
	return found
}

// Insert adds v to the set and reports whether v was absent:
// insertFrom started from head.
func (l *List) Insert(v int64) bool {
	g := l.arena.Pin()
	_, n, _ := l.insertFrom(g, l.head, v, nil)
	g.Unpin()
	return n > 0
}

// Remove deletes v from the set and reports whether v was present:
// removeFrom started from head.
func (l *List) Remove(v int64) bool {
	g := l.arena.Pin()
	_, ok, _ := l.removeFrom(g, l.head, v)
	g.Unpin()
	return ok
}

// insertFrom is the Lazy insert protocol for key v, locating its
// window from anchor: head for Insert, the pass's anchor for
// InsertAll. While the validated window (prev, curr) is locked, every
// key of rest — ascending, all above v — that falls below curr.val is
// provably absent too, so it is linked in the same store. A failed
// validation restarts from head, Lazy's native restart locality. It
// returns the next anchor (a node preceding every key after those
// consumed), how many keys it inserted — 0 when v was present, in
// which case only v is consumed — and how many failed validations it
// restarted after.
func (l *List) insertFrom(g mem.Guard[node], anchor *node, v int64, rest []int64) (next *node, inserted, restarts int) {
	esc := obs.Escalator{Budget: int(l.budget.Load()), HeadNative: true}
	for {
		prev, curr := l.findFrom(anchor, v)
		l.lockWindow(prev, curr)
		ok := validate(prev, curr)
		if fp := l.fps; failpoint.On(fp) && ok && fp.Fail(failpoint.SiteLazyValidate, v) {
			ok = false
		}
		if !ok {
			curr.lock.Unlock()
			prev.lock.Unlock()
			l.countValFail(prev, curr, v)
			esc.Failed(l.probes, v)
			anchor = l.head
			continue
		}
		if curr.val == v {
			// Value already present — but the locks were taken anyway.
			curr.lock.Unlock()
			prev.lock.Unlock()
			esc.Done(&l.retry)
			return curr, 0, esc.Restarts()
		}
		n := l.newNode(g, v)
		n.next.Store(curr)
		tail := n
		inserted = 1
		for _, k := range rest {
			if k >= curr.val {
				break
			}
			m := l.newNode(g, k)
			m.next.Store(curr)
			tail.next.Store(m)
			tail = m
			inserted++
		}
		prev.next.Store(n)
		curr.lock.Unlock()
		prev.lock.Unlock()
		esc.Done(&l.retry)
		return tail, inserted, esc.Restarts()
	}
}

// removeFrom is the Lazy remove protocol for key v, locating its window
// from anchor: head for Remove, the pass's anchor for RemoveAll. A
// failed validation restarts from head. It returns the next anchor
// (the window's prev, which precedes every larger key), whether v was
// present, and how many failed validations it restarted after.
func (l *List) removeFrom(g mem.Guard[node], anchor *node, v int64) (next *node, removed bool, restarts int) {
	esc := obs.Escalator{Budget: int(l.budget.Load()), HeadNative: true}
	for {
		prev, curr := l.findFrom(anchor, v)
		l.lockWindow(prev, curr)
		ok := validate(prev, curr)
		if fp := l.fps; failpoint.On(fp) && ok && fp.Fail(failpoint.SiteLazyValidate, v) {
			ok = false
		}
		if !ok {
			curr.lock.Unlock()
			prev.lock.Unlock()
			l.countValFail(prev, curr, v)
			esc.Failed(l.probes, v)
			anchor = l.head
			continue
		}
		if curr.val != v {
			curr.lock.Unlock()
			prev.lock.Unlock()
			esc.Done(&l.retry)
			return prev, false, esc.Restarts()
		}
		// The mark+unlink run under both locks and must not be skipped,
		// so the site is Do-only: delays and pauses, never forced failure.
		if fp := l.fps; failpoint.On(fp) {
			fp.Do(failpoint.SiteUnlink, v)
		}
		curr.marked.Store(true)           // logical deletion
		prev.next.Store(curr.next.Load()) // physical unlink
		curr.lock.Unlock()
		prev.lock.Unlock()
		if p := l.probes; obs.On(p) {
			p.Inc(obs.EvLogicalDelete, v)
			p.Inc(obs.EvPhysicalUnlink, v)
		}
		// Retire only after curr's lock is released: the node's next
		// life must find its lock free. The unlink under both locks
		// makes this the node's unique retirement.
		if g.Active() {
			g.Retire(curr)
		}
		esc.Done(&l.retry)
		return prev, true, esc.Restarts()
	}
}

// Len counts the unmarked elements by traversal; exact at quiescence.
func (l *List) Len() int {
	g := l.arena.Pin()
	n := 0
	for curr := l.head.next.Load(); curr.val != MaxSentinel; curr = curr.next.Load() {
		if !curr.marked.Load() {
			n++
		}
	}
	g.Unpin()
	return n
}

// Snapshot returns the unmarked elements in ascending order; exact at
// quiescence.
func (l *List) Snapshot() []int64 {
	g := l.arena.Pin()
	var out []int64
	for curr := l.head.next.Load(); curr.val != MaxSentinel; curr = curr.next.Load() {
		if !curr.marked.Load() {
			out = append(out, curr.val)
		}
	}
	g.Unpin()
	return out
}
