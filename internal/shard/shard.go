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
// The partition is fixed at construction: a focus range split into S
// power-of-two spans, so routing is a comparison, a subtraction, one
// shift and one clamp — no division, no hashing, no locks and no
// indirection beyond the slot table.
package shard

import (
	"fmt"
	"math/bits"
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

// loadSlot is one shard's padded operation counter (EnableLoadStats).
type loadSlot struct {
	n atomic.Uint64
	_ [cacheLine - 8]byte
}

// Sharded is the range-partitioned façade: S independent Sets, each
// owning one contiguous slice of the key space. The zero value is not
// usable; call New or NewRange.
//
// Sharded is safe for concurrent use iff the underlying sets are; it
// adds no locking of its own.
type Sharded struct {
	lo, hi int64  // focus range [lo, hi)
	shift  uint   // log2 of the per-shard key span
	slots  []slot // one per shard, in key order

	// loads, when non-nil (EnableLoadStats, before sharing), counts
	// routed operations per shard — the load histogram the adaptive
	// controller's fair-share test reads.
	loads []loadSlot

	// fps, when non-nil, arms the chaos failpoints: the façade's own
	// SiteShardRoute site plus whatever sites the shards expose.
	fps *failpoint.Set

	// probes, when non-nil, receives the façade's own events (batch
	// splits); the shards' events are attached separately by SetProbes.
	probes *obs.Probes
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
	s := &Sharded{lo: lo, hi: hi, shift: spanShift(lo, hi, n), slots: make([]slot, n)}
	for i := range s.slots {
		s.slots[i].set = newSet()
	}
	return s
}

// FocusRange returns the focus range [lo, hi) the set was constructed
// over.
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

// shardOf maps a key to its owning slot index. It is a pure, monotone
// function of the key: k1 <= k2 implies shardOf(k1) <= shardOf(k2),
// which is what keeps Snapshot a plain concatenation.
func (s *Sharded) shardOf(k int64) int {
	if k < s.lo {
		return 0
	}
	idx := (uint64(k) - uint64(s.lo)) >> s.shift
	if idx >= uint64(len(s.slots)) {
		idx = uint64(len(s.slots) - 1)
	}
	return int(idx)
}

// boundary returns the inclusive lower key bound of shard i, saturated
// at MaxInt64 on overflow.
func (s *Sharded) boundary(i int) int64 {
	off := uint64(i) << s.shift
	b := int64(uint64(s.lo) + off)
	if off>>s.shift != uint64(i) || b < s.lo {
		return 1<<63 - 1
	}
	return b
}

// route is the façade's own failpoint site plus the per-shard load
// accounting: a delay/yield/pause between computing v's owning shard
// and entering it widens the window in which a concurrent operation on
// a seam key can overtake, the interleaving the seam-fault conformance
// tests hammer.
func (s *Sharded) route(v int64) Set {
	if fp := s.fps; failpoint.On(fp) {
		fp.Do(failpoint.SiteShardRoute, v)
	}
	i := s.shardOf(v)
	if ls := s.loads; ls != nil {
		ls[i].n.Add(1)
	}
	return s.slots[i].set
}

// Insert adds v and reports whether v was absent. It is executed
// entirely by v's owning shard.
func (s *Sharded) Insert(v int64) bool { return s.route(v).Insert(v) }

// Remove deletes v and reports whether v was present.
func (s *Sharded) Remove(v int64) bool { return s.route(v).Remove(v) }

// Contains reports whether v is in the set.
func (s *Sharded) Contains(v int64) bool { return s.route(v).Contains(v) }

// Len sums the shard lengths. Like the underlying lists' Len it is a
// best-effort traversal under concurrent updates and exact at
// quiescence; O(n) total across shards.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.slots {
		n += s.slots[i].set.Len()
	}
	return n
}

// Snapshot returns the elements in ascending order by concatenating
// the per-shard snapshots: the partition is order-preserving, so every
// key of shard i precedes every key of shard i+1. Best-effort under
// concurrent updates, exact at quiescence.
func (s *Sharded) Snapshot() []int64 {
	var out []int64
	for i := range s.slots {
		out = append(out, s.slots[i].set.Snapshot()...)
	}
	return out
}

// Shards returns the number of shards (after power-of-two rounding).
func (s *Sharded) Shards() int { return len(s.slots) }

// Boundaries returns the inclusive lower key bound of each shard in
// ascending order; element 0 is conceptually -inf (shard 0 also owns
// every key below the focus range) and is reported as the focus lower
// edge. Bounds that would overflow int64 saturate at MaxInt64.
func (s *Sharded) Boundaries() []int64 {
	out := make([]int64, len(s.slots))
	for i := range out {
		out[i] = s.boundary(i)
	}
	return out
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters to every shard that supports instrumentation, so per-shard
// events aggregate into one obs.Probes and surface in the existing
// listset/bench/v1 report unchanged. Call before sharing the set.
func (s *Sharded) SetProbes(p *obs.Probes) {
	s.probes = p
	for i := range s.slots {
		obs.Attach(s.slots[i].set, p)
	}
}

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer: the façade consults it at SiteShardRoute and forwards it to
// every shard that is itself Injectable, so one armed Set drives both
// the seam and the per-shard algorithm sites. Call before sharing.
func (s *Sharded) SetFailpoints(fp *failpoint.Set) {
	s.fps = fp
	for i := range s.slots {
		failpoint.Attach(s.slots[i].set, fp)
	}
}

// SetRetryBudget forwards the retry budget to every shard that
// supports one. Safe to call while operations are in flight (the
// shards store their budgets atomically).
func (s *Sharded) SetRetryBudget(k int) {
	for i := range s.slots {
		obs.AttachRetryBudget(s.slots[i].set, k)
	}
}

// RetryStats sums the per-shard restart/escalation tallies (zero for
// shards without a retry ladder).
func (s *Sharded) RetryStats() obs.RetryStats {
	var sum obs.RetryStats
	for i := range s.slots {
		if rb, ok := s.slots[i].set.(obs.RetryBudgeted); ok {
			sum = sum.Add(rb.RetryStats())
		}
	}
	return sum
}

// SetShardBackoffs attaches one try-lock backoff policy per shard (the
// adaptive controller's per-shard actuator): policy i governs shard i.
// len(bs) must equal Shards(); call before sharing the set (retuning
// the attached policies afterwards is safe — their fields are atomic).
func (s *Sharded) SetShardBackoffs(bs []*trylock.Backoff) {
	if len(bs) != len(s.slots) {
		panic(fmt.Sprintf("shard: SetShardBackoffs with %d policies for %d shards", len(bs), len(s.slots)))
	}
	for i := range s.slots {
		trylock.AttachBackoff(s.slots[i].set, bs[i])
	}
}

// EnableLoadStats turns on per-shard operation counting, the load
// histogram the adaptive controller reads. Call before sharing the set.
func (s *Sharded) EnableLoadStats() {
	if s.loads == nil {
		s.loads = make([]loadSlot, len(s.slots))
	}
}

// LoadCounts returns the cumulative routed-operation count per shard
// (nil unless EnableLoadStats was called). Counts are monotone for the
// set's life; diff two reads for an interval's weights.
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

var (
	_ obs.Instrumented     = (*Sharded)(nil)
	_ obs.RetryBudgeted    = (*Sharded)(nil)
	_ failpoint.Injectable = (*Sharded)(nil)
)
