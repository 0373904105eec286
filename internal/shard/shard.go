// Package shard is the order-preserving range partitioner that scales
// the repository's list-based sets past the paper's single-list regime:
// S independent lists ("shards"), each covering one contiguous slice of
// the key space, behind a façade that still satisfies the full Set
// contract.
//
// The paper proves VBL extracts every schedule a single list can
// accept; what it cannot change is that a traversal still walks O(n)
// nodes and every operation's first hop loads the one head node's
// cache line. Partitioning the key range into S contiguous sub-ranges
// attacks both costs at once: expected traversal length drops to
// O(n/S), and contended try-lock acquisitions spread across S
// independent head regions (each shard's sentinels are cache-line
// padded by the underlying lists, and the shard header array here is
// padded so adjacent slots never share a line).
//
// Why the composition stays linearizable (DESIGN.md §8 for the long
// form): the partition function is a pure function of the key, so
// every operation on key k — Insert(k), Remove(k), Contains(k) — is
// executed verbatim by exactly one shard, and each shard is itself a
// linearizable set. Operations on different shards touch disjoint
// state and disjoint keys, so ordering them by their per-shard
// linearization points yields a legal sequential history of the whole
// set: linearizability composes by key locality.
//
// The partitioner is order-preserving: the map key→shard is monotone,
// so shard i's keys all precede shard i+1's and Snapshot is a plain
// concatenation of per-shard snapshots, still in ascending order.
//
// # Generations and online rebalancing
//
// The partition lives in an immutable generation: a boundary table
// plus the slots it routes into. A static set keeps one generation for
// its whole life and routing is a comparison, a subtraction, one shift
// and one clamp — no division, no hashing. EnableRebalance arms the
// façade for online repartitioning (DESIGN.md §14): Rebalance builds a
// fresh generation from an explicit boundary table (weighted-quantile
// splits come from internal/adapt) and migrates keys chunk by chunk
// behind a watermark, routing every operation through a striped
// read-lock so each op executes against exactly one routing state.
// Unarmed sets never touch the stripes: the fast path is one atomic
// generation-pointer load on top of the original routing.
package shard

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/trylock"
)

// Set is the operation surface a shard must provide. The root
// package's implementations satisfy it structurally; this package
// deliberately does not import them (they import it).
type Set interface {
	Insert(v int64) bool
	Remove(v int64) bool
	Contains(v int64) bool
	Len() int
	Snapshot() []int64
}

const (
	// DefaultShards is the shard count the root package's composed
	// names (vbl-sharded and the like) preset.
	DefaultShards = 16
	// DefaultFocus is the default focus range [0, DefaultFocus): the
	// slice of the key space split evenly across shards when the
	// caller does not supply one. Synchrobench-style workloads draw
	// keys from [0, range), so benchmark tools pass their range
	// explicitly instead.
	DefaultFocus int64 = 1 << 16
	// MaxShards bounds the shard count: past a few hundred shards the
	// per-shard lists are a handful of nodes and the façade's fixed
	// costs dominate.
	MaxShards = 1 << 10

	// cacheLine is the coherence granularity the slot layout targets:
	// 64 bytes covers x86-64 and the common arm64 parts.
	cacheLine = 64
)

// slot is one shard header: the shard's set, padded so adjacent
// headers never share a cache line. The header itself is read-only
// after construction, but without padding two neighbouring interface
// words would sit on one line and pull both shards' metadata into
// every miss on either.
type slot struct {
	set Set
	_   [(cacheLine - unsafe.Sizeof(Set(nil))%cacheLine) % cacheLine]byte
}

// generation is one immutable routing epoch: the boundary table and
// the slots it routes into. Every field is fixed at construction, so a
// generation can be read without synchronization once published
// through the façade's atomic pointer.
type generation struct {
	lo    int64 // lower edge of the focus range
	shift uint  // log2 of the per-shard key span (uniform routing)
	// bounds, when non-nil, replaces the uniform shift routing: element
	// i is the inclusive lower key bound of shard i, strictly
	// increasing from index 1. Element 0 is conceptually -inf (shard 0
	// also owns every key below the focus range) and stores the focus
	// lower edge for reporting. Routing is a binary search, still a
	// monotone function of the key.
	bounds []int64
	slots  []slot
}

// shardOf maps a key to its owning slot index. It is a pure, monotone
// function of the key: k1 <= k2 implies shardOf(k1) <= shardOf(k2),
// which is what keeps Snapshot a plain concatenation.
func (g *generation) shardOf(k int64) int {
	if g.bounds != nil {
		// Greatest i with bounds[i] <= k; keys below bounds[1] belong
		// to shard 0 regardless of the stored bounds[0].
		i, j := 1, len(g.bounds)
		for i < j {
			h := int(uint(i+j) >> 1)
			if g.bounds[h] <= k {
				i = h + 1
			} else {
				j = h
			}
		}
		return i - 1
	}
	if k < g.lo {
		return 0
	}
	idx := (uint64(k) - uint64(g.lo)) >> g.shift
	if idx >= uint64(len(g.slots)) {
		idx = uint64(len(g.slots) - 1)
	}
	return int(idx)
}

// boundary returns the inclusive lower key bound of shard i, saturated
// at MaxInt64 on overflow.
func (g *generation) boundary(i int) int64 {
	if g.bounds != nil {
		return g.bounds[i]
	}
	off := uint64(i) << g.shift
	b := int64(uint64(g.lo) + off)
	if off>>g.shift != uint64(i) || b < g.lo {
		return 1<<63 - 1
	}
	return b
}

// boundaries returns the full boundary table (see Sharded.Boundaries).
func (g *generation) boundaries() []int64 {
	out := make([]int64, len(g.slots))
	for i := range out {
		out[i] = g.boundary(i)
	}
	return out
}

// length sums the shard lengths of this generation.
func (g *generation) length() int {
	n := 0
	for i := range g.slots {
		n += g.slots[i].set.Len()
	}
	return n
}

// snapshot concatenates the per-shard snapshots (ascending: the
// partition is order-preserving).
func (g *generation) snapshot() []int64 {
	var out []int64
	for i := range g.slots {
		out = append(out, g.slots[i].set.Snapshot()...)
	}
	return out
}

// rangeScan returns this generation's keys in [lo, hi), ascending.
func (g *generation) rangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	var out []int64
	for i := g.shardOf(lo); i <= g.shardOf(hi-1); i++ {
		set := g.slots[i].set
		if r, ok := set.(Ranger); ok {
			out = append(out, r.RangeScan(lo, hi)...)
			continue
		}
		for _, v := range set.Snapshot() {
			if v >= lo && v < hi {
				out = append(out, v)
			}
		}
	}
	return out
}

// ascend walks this generation's keys >= from in ascending order until
// yield returns false; reports whether the walk was stopped by yield.
func (g *generation) ascend(from int64, yield func(int64) bool) (stopped bool) {
	for i := g.shardOf(from); i < len(g.slots) && !stopped; i++ {
		set := g.slots[i].set
		if r, ok := set.(Ranger); ok {
			//lint:ignore hotalloc the stop-propagating wrapper must capture yield and stopped to end the walk across shard boundaries; one closure per shard per scan, amortized over the whole walk
			r.Ascend(from, func(v int64) bool {
				if !yield(v) {
					stopped = true
					return false
				}
				return true
			})
			continue
		}
		for _, v := range set.Snapshot() {
			if v >= from && !yield(v) {
				stopped = true
				break
			}
		}
	}
	return stopped
}

// migration is the transient state of one online rebalance: keys below
// the watermark have moved to the new generation, keys at or above it
// are still owned by the old one. The watermark only advances while
// the migrator holds every routing stripe exclusively, so an operation
// (which holds its key's stripe shared) always sees a stable routing
// decision for the duration of its critical section.
type migration struct {
	from, to  *generation
	watermark atomic.Int64
}

// migStripes is the number of routing stripes an armed façade routes
// operations through; 16 matches the obs counter striping so the
// per-key hash spreads identically.
const migStripes = 16

// paddedRWMutex keeps adjacent stripes off each other's cache lines;
// the read-lock fast path is an atomic RMW on the mutex word, which
// would otherwise bounce between stripes.
type paddedRWMutex struct {
	sync.RWMutex
	_ [(cacheLine - unsafe.Sizeof(sync.RWMutex{})%cacheLine) % cacheLine]byte
}

// stripedLocks is the routing-stripe table: single-key operations take
// their key's stripe shared; whole-set operations (Len, Snapshot,
// scans, batches) take every stripe shared; the migrator takes every
// stripe exclusive. All multi-stripe acquisitions walk the table in
// index order, so the lock order is global and acyclic.
type stripedLocks struct {
	ls [migStripes]paddedRWMutex
}

// forKey maps a key to its stripe (Fibonacci hashing, mirroring
// obs.shardOf so near-sequential keys spread across stripes).
func (sl *stripedLocks) forKey(k int64) *sync.RWMutex {
	return &sl.ls[(uint64(k)*0x9E3779B97F4A7C15)>>(64-4)].RWMutex
}

func (sl *stripedLocks) lockAll() {
	for i := range sl.ls {
		sl.ls[i].Lock()
	}
}

func (sl *stripedLocks) unlockAll() {
	for i := range sl.ls {
		sl.ls[i].Unlock()
	}
}

func (sl *stripedLocks) rlockAll() {
	for i := range sl.ls {
		sl.ls[i].RLock()
	}
}

func (sl *stripedLocks) runlockAll() {
	for i := range sl.ls {
		sl.ls[i].RUnlock()
	}
}

// loadSlot is one shard's padded operation counter (EnableLoadStats).
type loadSlot struct {
	n atomic.Uint64
	_ [cacheLine - 8]byte
}

// Sharded is the range-partitioned façade: S independent Sets, each
// owning one contiguous slice of the key space. The zero value is not
// usable; call New or NewRange.
//
// Sharded is safe for concurrent use iff the underlying sets are; an
// unarmed façade adds no locking of its own, and an armed one
// (EnableRebalance) adds one striped read-lock per operation.
type Sharded struct {
	// gen is the current routing generation; replaced wholesale by a
	// completed rebalance, never mutated in place.
	gen atomic.Pointer[generation]
	// mig is non-nil exactly while a rebalance is migrating keys.
	mig atomic.Pointer[migration]

	lo, hi int64      // focus range [lo, hi) (immutable)
	newSet func() Set // shard constructor, kept for rebuilds

	// rebalanceable arms the striped routing locks; set only by
	// EnableRebalance, before the set is shared. Unarmed façades never
	// touch locks and pay no per-op synchronization beyond the
	// generation pointer load.
	rebalanceable bool
	locks         *stripedLocks
	// rebalanceMu serializes migrators: one rebalance at a time.
	rebalanceMu sync.Mutex

	// loads, when non-nil (EnableLoadStats, before sharing), counts
	// routed operations per shard — the weights the adaptive
	// controller's quantile split uses. Best-effort during a
	// migration, exact between them.
	loads []loadSlot

	// parallel, when true, fans batch sub-batches out to one goroutine
	// per non-empty shard (SetBatchParallel). Atomic: the adaptive
	// controller toggles it mid-run to shed overload.
	parallel atomic.Bool

	// fps, when non-nil, arms the chaos failpoints: the façade's own
	// SiteShardRoute site plus whatever sites the shards expose.
	fps *failpoint.Set

	// probes, when non-nil, receives the façade's own events (batch
	// splits); the shards' events are attached separately by SetProbes.
	probes *obs.Probes

	// budget is the last attached retry budget, kept so a rebalance can
	// hand it to the fresh generation's shards. Atomic: the controller
	// and the harness watchdog may race a rebalance.
	budget atomic.Int32

	// backoffs, when non-nil, holds the per-shard backoff policies last
	// attached by SetShardBackoffs, re-attached to fresh generations.
	backoffs atomic.Pointer[[]*trylock.Backoff]
}

// New returns a Sharded over the given number of shards (rounded up to
// a power of two, clamped to [1, MaxShards]) focused on the default
// key range [0, DefaultFocus). newSet constructs each shard's backing
// set.
func New(shards int, newSet func() Set) *Sharded {
	return NewRange(shards, 0, DefaultFocus, newSet)
}

// NewRange returns a Sharded whose focus range [lo, hi) is split
// evenly across the shards: each shard owns a power-of-two span of at
// least (hi-lo)/S keys. Keys below lo route to shard 0 and keys above
// the covered prefix to the last shard, so every int64 key is owned by
// exactly one shard. Panics if hi <= lo or newSet is nil, mirroring
// the "misuse panics at construction" convention of the root package.
func NewRange(shards int, lo, hi int64, newSet func() Set) *Sharded {
	if newSet == nil {
		panic("shard: NewRange called with nil constructor")
	}
	if hi <= lo {
		panic(fmt.Sprintf("shard: empty focus range [%d, %d)", lo, hi))
	}
	n := ceilPow2(shards)
	g := &generation{
		lo:    lo,
		shift: spanShift(lo, hi, n),
		slots: make([]slot, n),
	}
	for i := range g.slots {
		g.slots[i].set = newSet()
	}
	s := &Sharded{lo: lo, hi: hi, newSet: newSet}
	s.gen.Store(g)
	return s
}

// FocusRange returns the focus range [lo, hi) the set was constructed
// over. Rebalancing moves the interior boundaries, never the edges.
func (s *Sharded) FocusRange() (lo, hi int64) { return s.lo, s.hi }

// ceilPow2 rounds n up to a power of two within [1, MaxShards].
func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	if n > MaxShards {
		return MaxShards
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// spanShift returns log2 of the per-shard key span: the smallest
// power-of-two span such that shards×span covers the width of
// [lo, hi). Width arithmetic is done in uint64 so the full-domain
// range works (hi-lo may exceed MaxInt64).
func spanShift(lo, hi int64, shards int) uint {
	width := uint64(hi) - uint64(lo)
	totalBits := bits.Len64(width - 1) // 2^totalBits >= width
	shardBits := bits.TrailingZeros(uint(shards))
	if totalBits <= shardBits {
		return 0 // more shards than keys; the tail shards stay empty
	}
	return uint(totalBits - shardBits)
}

// shardOf maps a key to its owning slot index in the current
// generation (tests and diagnostics; operations route through their
// generation explicitly).
func (s *Sharded) shardOf(k int64) int {
	return s.gen.Load().shardOf(k)
}

// route is the façade's own failpoint site plus the per-shard load
// accounting: a delay/yield/pause between computing v's owning shard
// and entering it widens the window in which a concurrent operation on
// a seam key can overtake, the interleaving the seam-fault conformance
// tests hammer.
func (s *Sharded) route(g *generation, v int64) int {
	if fp := s.fps; failpoint.On(fp) {
		fp.Do(failpoint.SiteShardRoute, v)
	}
	i := g.shardOf(v)
	if ls := s.loads; ls != nil {
		ls[i].n.Add(1)
	}
	return i
}

// owner returns the set currently owning v. When a migration is in
// flight, keys below the watermark have moved to the new generation.
// An armed façade's caller must hold v's routing stripe (shared) so
// the watermark cannot advance mid-operation.
func (s *Sharded) owner(v int64) Set {
	if m := s.mig.Load(); m != nil {
		g := m.from
		if v < m.watermark.Load() {
			g = m.to
		}
		return g.slots[s.route(g, v)].set
	}
	g := s.gen.Load()
	return g.slots[s.route(g, v)].set
}

// Insert adds v and reports whether v was absent. It is executed
// entirely by v's owning shard, under a stable routing decision.
func (s *Sharded) Insert(v int64) bool {
	if !s.rebalanceable {
		g := s.gen.Load()
		return g.slots[s.route(g, v)].set.Insert(v)
	}
	mu := s.locks.forKey(v)
	mu.RLock()
	ok := s.owner(v).Insert(v)
	mu.RUnlock()
	return ok
}

// Remove deletes v and reports whether v was present.
func (s *Sharded) Remove(v int64) bool {
	if !s.rebalanceable {
		g := s.gen.Load()
		return g.slots[s.route(g, v)].set.Remove(v)
	}
	mu := s.locks.forKey(v)
	mu.RLock()
	ok := s.owner(v).Remove(v)
	mu.RUnlock()
	return ok
}

// Contains reports whether v is in the set.
func (s *Sharded) Contains(v int64) bool {
	if !s.rebalanceable {
		g := s.gen.Load()
		return g.slots[s.route(g, v)].set.Contains(v)
	}
	mu := s.locks.forKey(v)
	mu.RLock()
	ok := s.owner(v).Contains(v)
	mu.RUnlock()
	return ok
}

// Len sums the shard lengths. Like the underlying lists' Len it is a
// best-effort traversal under concurrent updates and exact at
// quiescence; O(n) total across shards.
func (s *Sharded) Len() int {
	if !s.rebalanceable {
		return s.gen.Load().length()
	}
	s.locks.rlockAll()
	defer s.locks.runlockAll()
	if m := s.mig.Load(); m != nil {
		// Disjoint by the watermark invariant: to holds the migrated
		// prefix, from the rest.
		return m.to.length() + m.from.length()
	}
	return s.gen.Load().length()
}

// Snapshot returns the elements in ascending order by concatenating
// the per-shard snapshots: the partition is order-preserving, so every
// key of shard i precedes every key of shard i+1. Best-effort under
// concurrent updates, exact at quiescence.
func (s *Sharded) Snapshot() []int64 {
	if !s.rebalanceable {
		return s.gen.Load().snapshot()
	}
	s.locks.rlockAll()
	defer s.locks.runlockAll()
	if m := s.mig.Load(); m != nil {
		// Every migrated key is below the watermark and every
		// unmigrated key at or above it, so the concatenation is sorted.
		return append(m.to.snapshot(), m.from.snapshot()...)
	}
	return s.gen.Load().snapshot()
}

// Shards returns the number of shards (after power-of-two rounding).
func (s *Sharded) Shards() int { return len(s.gen.Load().slots) }

// Boundaries returns the inclusive lower key bound of each shard of
// the current generation in ascending order; element 0 is conceptually
// -inf (shard 0 also owns every key below the focus range) and is
// reported as the focus lower edge. Bounds that would overflow int64
// saturate at MaxInt64.
func (s *Sharded) Boundaries() []int64 {
	return s.gen.Load().boundaries()
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters to every shard that supports instrumentation, so per-shard
// events aggregate into one obs.Probes and surface in the existing
// listset/bench/v1 report unchanged. Call before sharing the set.
func (s *Sharded) SetProbes(p *obs.Probes) {
	s.probes = p
	g := s.gen.Load()
	for i := range g.slots {
		obs.Attach(g.slots[i].set, p)
	}
}

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer: the façade consults it at SiteShardRoute and forwards it to
// every shard that is itself Injectable, so one armed Set drives both
// the seam and the per-shard algorithm sites. Call before sharing.
func (s *Sharded) SetFailpoints(fp *failpoint.Set) {
	s.fps = fp
	g := s.gen.Load()
	for i := range g.slots {
		failpoint.Attach(g.slots[i].set, fp)
	}
}

// SetRetryBudget forwards the retry budget to every shard that
// supports one. Safe to call while operations are in flight (the
// shards store their budgets atomically); a migration in progress
// hands the latest budget to the generation it is building.
func (s *Sharded) SetRetryBudget(k int) {
	s.budget.Store(int32(k))
	g := s.gen.Load()
	for i := range g.slots {
		obs.AttachRetryBudget(g.slots[i].set, k)
	}
	if m := s.mig.Load(); m != nil {
		for i := range m.to.slots {
			obs.AttachRetryBudget(m.to.slots[i].set, k)
		}
	}
}

// RetryStats sums the per-shard restart/escalation tallies (zero for
// shards without a retry ladder).
func (s *Sharded) RetryStats() obs.RetryStats {
	var sum obs.RetryStats
	g := s.gen.Load()
	for i := range g.slots {
		if rb, ok := g.slots[i].set.(obs.RetryBudgeted); ok {
			sum = sum.Add(rb.RetryStats())
		}
	}
	return sum
}

// SetShardBackoffs attaches one try-lock backoff policy per shard (the
// adaptive controller's per-shard actuator) and keeps the table so
// rebalances re-attach it to fresh generations: policy i always
// governs slot i of the current partition. len(bs) must equal
// Shards(); call before sharing the set (retuning the attached
// policies afterwards is safe — their fields are atomic).
func (s *Sharded) SetShardBackoffs(bs []*trylock.Backoff) {
	g := s.gen.Load()
	if len(bs) != len(g.slots) {
		panic(fmt.Sprintf("shard: SetShardBackoffs with %d policies for %d shards", len(bs), len(g.slots)))
	}
	s.backoffs.Store(&bs)
	for i := range g.slots {
		trylock.AttachBackoff(g.slots[i].set, bs[i])
	}
}

// EnableLoadStats turns on per-shard operation counting, the weight
// source for adaptive repartitioning. Call before sharing the set.
func (s *Sharded) EnableLoadStats() {
	if s.loads == nil {
		s.loads = make([]loadSlot, len(s.gen.Load().slots))
	}
}

// LoadCounts returns the cumulative routed-operation count per shard
// of the current partition (nil unless EnableLoadStats was called).
// Counts are monotone; diff two reads for an interval's weights.
func (s *Sharded) LoadCounts() []uint64 {
	if s.loads == nil {
		return nil
	}
	out := make([]uint64, len(s.loads))
	for i := range s.loads {
		out[i] = s.loads[i].n.Load()
	}
	return out
}

// EnableRebalance arms the façade for online repartitioning: every
// operation routes through a striped read-lock from now on, which is
// what lets Rebalance freeze routing per chunk. Call before sharing
// the set; an unarmed façade rejects Rebalance and pays none of the
// striping cost.
func (s *Sharded) EnableRebalance() {
	if s.locks == nil {
		s.locks = &stripedLocks{}
		s.rebalanceable = true
	}
}

// RebalanceEnabled reports whether EnableRebalance armed the façade.
func (s *Sharded) RebalanceEnabled() bool { return s.rebalanceable }

var (
	_ obs.Instrumented     = (*Sharded)(nil)
	_ obs.RetryBudgeted    = (*Sharded)(nil)
	_ failpoint.Injectable = (*Sharded)(nil)
)
