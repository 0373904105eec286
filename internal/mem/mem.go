// Package mem is the repository's node-memory layer: slab-backed
// arenas with per-worker free lists and epoch-based reclamation.
//
// The paper's evaluation runs against C/C++ and Java implementations
// that manage node lifetimes manually (or lean on a generational GC
// tuned for exactly this churn); our Go reproduction heap-allocates a
// fresh node per insert and abandons unlinked nodes to the garbage
// collector, so update-heavy workloads pay allocator and GC-scan costs
// the original never did. This package removes both:
//
//   - Slabs: nodes are carved bump-pointer style out of contiguous
//     fixed-size slabs (one make([]T, SlabSize) per refill), so nodes
//     allocated together sit together — the cache-locality property a
//     per-node heap allocator cannot promise — and the allocator is
//     touched once per SlabSize nodes instead of once per node.
//   - Per-worker free lists: each worker goroutine owns a private
//     stack of reusable nodes, so steady-state churn (insert, remove,
//     re-insert) recycles memory with no shared-state coordination at
//     all on the hot path.
//   - Epoch-based reclamation: the single global rule that makes reuse
//     safe under wait-free traversal. Every operation pins the global
//     epoch for its duration; a physically-unlinked node is retired
//     into the worker's limbo bucket for the pin epoch; the global
//     epoch only advances when every pinned worker has caught up with
//     it; and a bucket is recycled only once the global epoch is two
//     ahead of it. A traversal that could still hold a pointer to a
//     retired node therefore pins an epoch that blocks the advances
//     the recycling needs — the two-epoch grace period.
//
// # Why recycling is safe for VBL and Lazy but not Harris
//
// Recycling re-introduces the ABA problem in general: a traversal
// parked on node X can observe X reincarnated with a different value.
// The grace period removes exactly that hazard for pointer *reads*: no
// node is reused while any operation that might have seen it is still
// pinned. What the grace period cannot repair is a CAS on a *recycled
// pointer value*: Harris-Michael's unlink CAS succeeds if prev.next
// still equals the remembered pointer, and a recycled node makes
// "equal pointer" stop implying "same logical node" — the classic ABA
// that manual-reclamation Harris implementations need hazard pointers
// or tags for. The lock-based VBL and Lazy lists have no such CAS:
// every structural write happens under per-node locks after a
// validation that re-reads the list's *current* state (VBL even
// validates by value, not identity, so a reincarnated successor is
// semantically welcome — Section 3.1's lockNextAtValue). Hence the
// arena is wired into VBL and Lazy, while Harris keeps GC allocation.
//
// # Memory-model argument (why the -race detector agrees)
//
// A recycled node's plain fields (val) are rewritten by its next
// owner. The happens-before chain from the last possible reader to
// that write is built entirely from the package's atomics: the reader
// unpins (atomic state store) → a later epoch advance's scan loads
// that state and CASes the global epoch → the recycler loads the
// advanced epoch before moving the bucket to the free list. Go's
// sync/atomic operations are sequentially consistent, so each link is
// a synchronizes-with edge and the whole chain is visible to the race
// detector — the -race stress tests in this package and internal/core
// exercise it directly.
package mem

import (
	"sync"
	"sync/atomic"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

// Options configures an Arena. The zero value selects the defaults.
type Options struct {
	// SlabSize is the number of nodes per slab (default 256). Bigger
	// slabs touch the Go allocator less and pack nodes denser; note
	// that a slab stays reachable as long as any one of its nodes is
	// linked into the list (retention amplification), so pathological
	// workloads that keep one node per slab alive pin SlabSize nodes
	// of memory each.
	SlabSize int
	// AdvanceEvery is how many retires a worker performs between
	// attempts to advance the global epoch (default 64). Smaller
	// values shorten the limbo queue at the cost of more advance
	// scans.
	AdvanceEvery int
	// Classes is the number of size classes the arena partitions its
	// free lists, slabs and limbo buckets into (default 1, max
	// MaxClasses). Nodes of one class only ever recycle into
	// allocations of the same class — the discipline the skip list uses
	// to guarantee a recycled tower always has at least the height the
	// allocation asked for, without a tall tower ever waiting behind the
	// dense height-1 class. Class indices are
	// caller-defined; the classless Get/Retire/Free methods operate on
	// class 0, so single-class users never see the partition.
	Classes int
}

// MaxClasses is the size-class cap. The per-worker class state is a
// fixed-size embedded array rather than a heap slice so the classless
// hot path (class 0, the flat lists) costs one constant-index access —
// a slice-of-slices here measurably taxes every Get on the flat lists
// for a partition they never use.
const MaxClasses = 4

const (
	defaultSlabSize     = 256
	defaultAdvanceEvery = 64
	// limboBuckets is the grace-period ring: a node retired at epoch e
	// goes into bucket e%3 and is recycled once the global epoch is at
	// least e+2, which the rotation guarantees (a bucket is only
	// reused at e+3).
	limboBuckets = 3
)

// Arena is a slab-backed node allocator with epoch-based reclamation,
// generic over the node type so each list keeps its unexported node
// struct. An Arena serves one list instance (one per shard behind the
// sharded façade); the zero value is not usable, call New.
type Arena[T any] struct {
	// epoch is the global epoch. It starts at 1 so a pinned state
	// (epoch<<1 | 1) can never collide with the plain "claimed" state.
	epoch atomic.Uint64

	// workers is the copy-on-write registry of every worker ever
	// created for this arena, read lock-free by epoch-advance scans
	// and Stats; mu serializes registration only.
	workers atomic.Pointer[[]*worker[T]]
	mu      sync.Mutex

	// pool recycles idle workers across operations. Ownership is not
	// granted by Get alone: a worker is owned by whoever wins the
	// state CAS 0→1, so a worker the GC cleared from the pool is
	// reclaimed by the registry scan instead of leaking.
	pool sync.Pool

	slabSize     int
	advanceEvery uint64
	classes      int

	// probes, when non-nil, receives reclamation events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the epoch-advance failpoint.
	fps *failpoint.Set
}

// New returns an empty arena.
func New[T any](opts Options) *Arena[T] {
	if opts.SlabSize <= 0 {
		opts.SlabSize = defaultSlabSize
	}
	if opts.AdvanceEvery <= 0 {
		opts.AdvanceEvery = defaultAdvanceEvery
	}
	if opts.Classes <= 0 {
		opts.Classes = 1
	}
	if opts.Classes > MaxClasses {
		opts.Classes = MaxClasses
	}
	a := &Arena[T]{slabSize: opts.SlabSize, advanceEvery: uint64(opts.AdvanceEvery), classes: opts.Classes}
	a.epoch.Store(1)
	empty := make([]*worker[T], 0)
	a.workers.Store(&empty)
	return a
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the arena between goroutines.
func (a *Arena[T]) SetProbes(p *obs.Probes) { a.probes = p }

// Classes returns the number of size classes the arena was built with.
func (a *Arena[T]) Classes() int { return a.classes }

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the arena between goroutines.
func (a *Arena[T]) SetFailpoints(fp *failpoint.Set) { a.fps = fp }

// worker is the per-goroutine allocation context: a private free
// list, the current slab, and the limbo ring. The hot fields are
// owner-private; only state (read by epoch-advance scans) and the
// stat counters (read by Stats) are shared, and both sit on their own
// cache lines so a scan never bounces the owner's working set.
type worker[T any] struct {
	_ [64]byte
	// state encodes ownership and pinning in one word the advance scan
	// can read lock-free: 0 = free (claimable by CAS), 1 = claimed but
	// not pinned, e<<1|1 with e >= 1 = pinned at epoch e.
	state atomic.Uint64
	_     [56]byte

	arena *Arena[T]
	id    int64 // probe key: registration index

	// free, slab and used are indexed by size class (single-class
	// arenas see only index 0): one private reusable-node stack and one
	// bump-pointer slab per class, so recycling never crosses classes.
	// Fixed-size arrays, not slices: class 0 is the flat lists' whole
	// hot path and must not pay a pointer chase per Get.
	free  [MaxClasses][]*T
	slab  [MaxClasses][]T
	used  [MaxClasses]int
	limbo [limboBuckets]limbo[T]
	// retires counts retires since the last epoch-advance attempt.
	retires uint64

	// Lifetime tallies, owner-written with atomic adds so Stats can
	// read them concurrently; padded against neighbour workers.
	statAllocs   atomic.Uint64 // nodes handed out (slab + recycled)
	statSlabs    atomic.Uint64 // slabs carved
	statRetired  atomic.Uint64 // nodes retired to limbo
	statRecycled atomic.Uint64 // nodes moved limbo → free list
	_            [64]byte
}

// limbo is one grace-period bucket: nodes retired at a single epoch,
// kept per size class so recycling restores each node to the free
// list it must come back out of.
type limbo[T any] struct {
	epoch uint64
	nodes [MaxClasses][]*T
}

// total returns the number of nodes waiting in the bucket.
func (b *limbo[T]) total() int {
	n := 0
	for _, ns := range &b.nodes {
		n += len(ns)
	}
	return n
}

// Guard is a pinned worker handle: the capability to allocate, retire
// and recycle nodes, valid from Pin to Unpin on a single goroutine.
// The zero Guard (from a nil arena) is inert: Active reports false and
// Unpin is a no-op, so call sites need no arena nil-checks of their
// own.
type Guard[T any] struct {
	w *worker[T]
}

// Active reports whether the guard is backed by an arena.
func (g Guard[T]) Active() bool { return g.w != nil }

// Pin enters the global epoch and returns the allocation guard. Every
// list operation that can touch arena-managed nodes — updates and
// wait-free traversals alike — must hold a guard for its whole
// duration, retries included: the pin is what blocks the epoch
// advances that would let a node under the operation's feet be
// recycled. A nil arena returns the inert zero Guard.
func (a *Arena[T]) Pin() Guard[T] {
	if a == nil {
		return Guard[T]{}
	}
	var w *worker[T]
	if v := a.pool.Get(); v != nil {
		w = v.(*worker[T])
		if !w.state.CompareAndSwap(0, 1) {
			// A registry scan claimed it between Put and Get; the CAS
			// winner owns it, so fall through to claim another.
			w = nil
		}
	}
	if w == nil {
		w = a.claim()
	}
	// Publish the pin, then re-read the global epoch: if it moved, the
	// advancer may have scanned past our not-yet-visible pin, so
	// republish at the new epoch. A pin that survives the re-read is
	// guaranteed visible to every advance beyond e — which is exactly
	// the fact the grace period's safety argument needs.
	for {
		e := a.epoch.Load()
		w.state.Store(e<<1 | 1)
		if a.epoch.Load() == e {
			return Guard[T]{w: w}
		}
	}
}

// claim finds a free registered worker (one the GC dropped from the
// pool, typically) or registers a new one. Ownership is the state CAS.
func (a *Arena[T]) claim() *worker[T] {
	for _, w := range *a.workers.Load() {
		if w.state.Load() == 0 && w.state.CompareAndSwap(0, 1) {
			return w
		}
	}
	w := &worker[T]{arena: a}
	w.state.Store(1)
	a.mu.Lock()
	old := *a.workers.Load()
	next := make([]*worker[T], len(old)+1)
	copy(next, old)
	w.id = int64(len(old))
	next[len(old)] = w
	a.workers.Store(&next)
	a.mu.Unlock()
	return w
}

// Unpin leaves the epoch and returns the worker to the pool. No
// pointer obtained from arena-managed nodes may be dereferenced after
// Unpin. No-op on the zero Guard.
func (g Guard[T]) Unpin() {
	w := g.w
	if w == nil {
		return
	}
	w.state.Store(0)
	w.arena.pool.Put(w)
}

// Get returns a class-0 node; see GetClass.
func (g Guard[T]) Get() *T { return g.GetClass(0) }

// GetClass returns a node of size class c: a recycled one when
// ReuseClass has one, otherwise one carved from the class's current
// slab. The node's contents are whatever its previous life left there
// — the caller re-initializes every field before publishing it.
func (g Guard[T]) GetClass(c int) *T {
	if p := g.ReuseClass(c); p != nil {
		return p
	}
	w := g.w
	w.countAlloc()
	if w.used[c] == len(w.slab[c]) {
		w.slab[c] = make([]T, w.arena.slabSize)
		w.used[c] = 0
		w.statSlabs.Add(1)
	}
	p := &w.slab[c][w.used[c]]
	w.used[c]++
	return p
}

// ReuseClass returns a recycled node of size class c — from the class's
// free list, or from a limbo bucket whose grace period expired — or nil
// once both are empty. It never carves a slab, so a caller whose nodes
// vary in size within a class can allocate fresh ones itself and still
// recycle them here through RetireClass and FreeClass.
func (g Guard[T]) ReuseClass(c int) *T {
	w := g.w
	if len(w.free[c]) == 0 {
		w.scavenge()
	}
	n := len(w.free[c])
	if n == 0 {
		return nil
	}
	w.countAlloc()
	p := w.free[c][n-1]
	w.free[c][n-1] = nil
	w.free[c] = w.free[c][:n-1]
	return p
}

// countAlloc tallies one node handed out.
func (w *worker[T]) countAlloc() {
	w.statAllocs.Add(1)
	if p := w.arena.probes; obs.On(p) {
		p.Inc(obs.EvNodeAlloc, w.id)
	}
}

// scavenge moves every limbo bucket whose grace period has expired
// (bucket epoch + 2 <= global epoch) onto the free lists.
func (w *worker[T]) scavenge() {
	ge := w.arena.epoch.Load()
	for i := range w.limbo {
		b := &w.limbo[i]
		if b.total() > 0 && b.epoch+2 <= ge {
			w.recycleBucket(b)
		}
	}
}

// recycleBucket empties one expired bucket onto the per-class free
// lists.
func (w *worker[T]) recycleBucket(b *limbo[T]) {
	n := 0
	for c, ns := range &b.nodes {
		if len(ns) == 0 {
			continue
		}
		w.free[c] = append(w.free[c], ns...)
		n += len(ns)
		clear(ns)
		b.nodes[c] = ns[:0]
	}
	w.statRecycled.Add(uint64(n))
	if p := w.arena.probes; obs.On(p) {
		for range n {
			p.Inc(obs.EvNodeRecycle, w.id)
		}
	}
}

// Retire queues a physically-unlinked node for reclamation after the
// grace period. The caller must have made the node unreachable for new
// traversals (the unlink) before retiring it; pinned traversals that
// may still stand on it are what the grace period protects. Retire
// must not be called twice for one node — the lists' locking protocol
// guarantees each node is unlinked exactly once.
//
// The node is bucketed by the global epoch read here, NOT the guard's
// pin epoch: a reader that could hold the node pinned before the
// unlink, so its pin epoch is at most this read (epochs are
// monotonic), and a reader pinned at e blocks the e+1 → e+2 advance
// the bucket's recycling waits for. Bucketing by the (possibly older)
// pin epoch would recycle one epoch too early for readers pinned
// after the global moved past the retirer.
func (g Guard[T]) Retire(p *T) { g.RetireClass(p, 0) }

// RetireClass queues a node of size class c for reclamation; the class
// must match the one the node was allocated with, so the grace-period
// expiry returns it to the free list GetClass(c) draws from. See
// Retire for the epoch-bucketing argument.
func (g Guard[T]) RetireClass(p *T, c int) {
	w := g.w
	e := w.arena.epoch.Load()
	b := &w.limbo[e%limboBuckets]
	if b.epoch != e {
		// The bucket holds nodes from epoch b.epoch <= e-3 (the ring
		// reuses a slot every third epoch), so their grace period has
		// long expired: recycle them as we rotate the bucket to e.
		if b.total() > 0 {
			w.recycleBucket(b)
		}
		b.epoch = e
	}
	b.nodes[c] = append(b.nodes[c], p)
	w.statRetired.Add(1)
	if pr := w.arena.probes; obs.On(pr) {
		pr.Inc(obs.EvLimboRetire, w.id)
	}
	w.retires++
	if w.retires >= w.arena.advanceEvery {
		w.retires = 0
		w.arena.tryAdvance()
	}
}

// Free returns a node that was never published (a failed insert's
// speculative node) straight to the free list: nothing can hold a
// pointer to it, so it needs no grace period.
func (g Guard[T]) Free(p *T) { g.FreeClass(p, 0) }

// FreeClass is Free for a node of size class c.
func (g Guard[T]) FreeClass(p *T, c int) {
	g.w.free[c] = append(g.w.free[c], p)
}

// tryAdvance attempts one global epoch advance e → e+1. The advance is
// refused while any worker is pinned at an epoch other than e: a
// worker still at e-1 must not see the epoch reach e+1, or the bucket
// it could be reading from (retired at e-1) would become recyclable
// (e-1+2 = e+1) under its feet.
func (a *Arena[T]) tryAdvance() bool {
	e := a.epoch.Load()
	if fp := a.fps; failpoint.On(fp) {
		if fp.Fail(failpoint.SiteEpochAdvance, int64(e)) {
			return false
		}
	}
	for _, w := range *a.workers.Load() {
		if st := w.state.Load(); st > 1 && st>>1 != e {
			return false
		}
	}
	if !a.epoch.CompareAndSwap(e, e+1) {
		return false
	}
	if p := a.probes; obs.On(p) {
		p.Inc(obs.EvEpochAdvance, int64(e))
	}
	return true
}

// Stats is a point-in-time aggregate view of an arena, exact at
// quiescence (per-counter atomic reads, like obs.Snapshot).
type Stats struct {
	// Epoch is the current global epoch.
	Epoch uint64
	// Workers is the number of registered workers.
	Workers int
	// Allocs counts nodes handed out by Get and ReuseClass (slab-carved +
	// recycled).
	Allocs uint64
	// Slabs counts slabs carved from the Go heap.
	Slabs uint64
	// Retired counts nodes retired into limbo.
	Retired uint64
	// Recycled counts nodes whose grace period expired and that moved
	// back onto a free list. Retired - Recycled is the limbo backlog.
	Recycled uint64
}

// Stats sums the per-worker tallies.
func (a *Arena[T]) Stats() Stats {
	s := Stats{Epoch: a.epoch.Load()}
	ws := *a.workers.Load()
	s.Workers = len(ws)
	for _, w := range ws {
		s.Allocs += w.statAllocs.Load()
		s.Slabs += w.statSlabs.Load()
		s.Retired += w.statRetired.Load()
		s.Recycled += w.statRecycled.Load()
	}
	return s
}
