// Package listset provides concurrent list-based implementations of the
// integer set type, reproducing "Optimal Concurrency for List-Based Sets"
// (Aksenov, Gramoli, Kuznetsov, Shang, Ravi — PACT 2021).
//
// The headline implementation is the VBL (Value-Based List), the paper's
// concurrency-optimal algorithm built on a value-aware try-lock
// (NewVBL). The package also ships the two state-of-the-art baselines
// the paper evaluates against — the Lazy Linked List (NewLazy) and the
// lock-free Harris-Michael list in both its AtomicMarkableReference
// (NewHarrisAMR) and RTTI-style marker (NewHarrisMarker) forms — plus
// coarse-grained and hand-over-hand locking lists as sanity baselines.
//
// All implementations store int64 keys in ascending order between two
// sentinel nodes holding MinKey-1 and MaxKey+1 conceptually; the extreme
// values math.MinInt64 and math.MaxInt64 are reserved for the sentinels
// and must not be passed to any operation.
//
// Quick start:
//
//	s := listset.NewVBL()
//	s.Insert(42)        // true: 42 was absent
//	s.Contains(42)      // true
//	s.Remove(42)        // true: 42 was present
//
// Every constructor returns a Set that is safe for concurrent use by any
// number of goroutines (except NewSequential, which is the single-thread
// reference implementation of the paper's Algorithm 1).
package listset

import (
	"math"

	"listset/internal/coarse"
	"listset/internal/core"
	"listset/internal/fomitchev"
	"listset/internal/harris"
	"listset/internal/hoh"
	"listset/internal/lazy"
	"listset/internal/optimistic"
	"listset/internal/seqlist"
	"listset/internal/shard"
	"listset/internal/skiplist"
)

// MinKey and MaxKey bound the keys a Set accepts. The two int64 extremes
// are reserved for the head/tail sentinels.
const (
	MinKey = math.MinInt64 + 1
	MaxKey = math.MaxInt64 - 1
)

// Set is an integer set. Insert and Remove report whether they changed
// the set; Contains reports membership. Implementations returned by this
// package's constructors (other than NewSequential) are linearizable and
// safe for concurrent use.
//
// Len and Snapshot traverse the list without synchronization barriers:
// under concurrent updates they observe some valid interleaving and are
// exact once the set is quiescent. They are intended for tests, examples
// and reporting, not hot paths (both are O(n)).
type Set interface {
	// Insert adds v and reports whether v was absent.
	Insert(v int64) bool
	// Remove deletes v and reports whether v was present.
	Remove(v int64) bool
	// Contains reports whether v is in the set.
	Contains(v int64) bool
	// Len returns the number of elements (O(n); exact at quiescence).
	Len() int
	// Snapshot returns the elements in ascending order (O(n); exact at
	// quiescence).
	Snapshot() []int64
}

// NewVBL returns the paper's contribution: the concurrency-optimal
// Value-Based List. Updates validate the list by value before and after
// taking a CAS-based per-node try-lock, traversals are wait-free, and
// removal separates logical deletion from physical unlinking.
func NewVBL() Set { return core.New() }

// NewVBLHeadRestart returns the ablation variant of VBL that restarts
// failed validations from the head instead of from prev, pricing the
// paper's restart-locality optimization.
func NewVBLHeadRestart() Set { return core.NewVariant(core.WithHeadRestart()) }

// NewVBLNoPreValidation returns the ablation variant of VBL whose
// try-lock skips the lock-free pre-validation, so every validation pays
// for the lock first (the Lazy list's lock-then-validate discipline on
// VBL's structure).
func NewVBLNoPreValidation() Set { return core.NewVariant(core.WithoutPreValidation()) }

// NewVBLMutex returns the ablation variant of VBL built on sync.Mutex
// node locks instead of the CAS spin try-lock.
func NewVBLMutex() Set { return core.NewMutex() }

// NewVBLArena returns VBL with arena-backed node lifetimes
// (internal/mem): inserts draw nodes from slab-backed per-worker free
// lists, removed nodes recycle after an epoch-based grace period, and
// the steady-state allocation rate drops to near zero. Semantics are
// identical to NewVBL.
func NewVBLArena() Set { return core.NewArena() }

// NewLazy returns the Lazy Linked List baseline (Heller et al., OPODIS
// 2006): wait-free traversals, but updates lock the window before
// validating — the post-locking validation the paper proves concurrency
// sub-optimal (Figure 2).
func NewLazy() Set { return lazy.New() }

// NewLazyArena returns the Lazy list with arena-backed node lifetimes
// (internal/mem), the allocation-rate counterpart of NewVBLArena for
// the lock-based baseline.
func NewLazyArena() Set { return lazy.NewArena() }

// NewHarrisAMR returns the lock-free Harris-Michael list built on an
// AtomicMarkableReference equivalent: each (next, marked) pair is an
// immutable cell, costing one extra indirection per traversal hop.
func NewHarrisAMR() Set { return harris.NewAMR() }

// NewHarrisMarker returns the lock-free Harris-Michael list with the
// RTTI-style optimization the paper benchmarks: deletion marks live in
// dedicated marker nodes, so traversal hops are single pointer loads.
func NewHarrisMarker() Set { return harris.NewMarker() }

// NewOptimistic returns the Optimistic locking list (Herlihy & Shavit,
// ch. 9.6): lock-free traversal, but every operation — contains
// included — locks its window and validates it by re-traversing from
// head.
func NewOptimistic() Set { return optimistic.New() }

// NewFomitchev returns the lock-free list of Fomitchev & Ruppert (PODC
// 2004) with backlink-based backtracking and the wait-free contains of
// the "selfish" variant (Gibson & Gramoli, DISC 2015) — the §5
// related-work algorithms.
func NewFomitchev() Set { return fomitchev.New() }

// NewVBSkip returns the value-aware skip list: the paper's §5
// conjecture ("skip-lists ... may allow for similar optimizations")
// made concrete. Its membership level is the VBL list verbatim; the
// upper index levels are maintained best-effort with single-node
// try-locks.
func NewVBSkip() Set { return skiplist.NewVB() }

// NewLazySkip returns the LazySkipList of Herlihy & Shavit (ch. 14.3),
// the lock-based skip-list baseline: every update locks all its
// predecessor levels before deciding anything.
func NewLazySkip() Set { return skiplist.NewLazy() }

// NewVBSkipArena returns the value-aware skip list with arena-backed
// tower lifetimes: towers are drawn from height-classed slabs
// (internal/mem) and recycled after the epoch-based grace period once
// provably unreachable at every level. Semantics are identical to
// NewVBSkip; see DESIGN.md §15 for the reclamation argument.
func NewVBSkipArena() Set { return skiplist.NewVBArena() }

// NewCoarse returns the sequential list behind one global mutex — the
// scalability floor.
func NewCoarse() Set { return coarse.New() }

// NewHOH returns the hand-over-hand (fine-grained locking) list, which
// locks every node on every path, including for contains.
func NewHOH() Set { return hoh.New() }

// NewSequential returns the paper's Algorithm 1 — the plain sequential
// sorted linked list LL. It is NOT safe for concurrent use; it exists as
// the semantic reference and single-thread baseline.
func NewSequential() Set { return seqlist.New() }

// DefaultShards is the shard count the composed registry names
// ("vbl-sharded" and the like) preset, re-exported from internal/shard
// for tools.
const DefaultShards = shard.DefaultShards

// NewVBLShardedRange returns shards independent VBL lists behind the
// order-preserving range partitioner of internal/shard: each key is
// owned by exactly one shard, so traversals walk O(n/S) nodes and
// contended try-locks spread across S separate head regions, while the
// Set contract is preserved end to end (Snapshot stays ascending, Len
// sums, per-shard contention events aggregate into one probe set).
// The shard count is rounded up to a power of two; the partition
// splits the focus range [lo, hi) evenly. Keys outside [lo, hi)
// remain valid; they route to the first or last shard. Any registered
// algorithm composes the same way through Impl.Build.
func NewVBLShardedRange(shards int, lo, hi int64) Set {
	return shard.NewRange(shards, lo, hi, func() shard.Set { return core.New() })
}

// NewVBSkipShardedRange returns the value-aware skip list behind the
// range partitioner: S independent log-time indexes, each over 1/S of
// the focus range [lo, hi) — both the traversal length AND the index
// height shrink with the per-shard key count.
func NewVBSkipShardedRange(shards int, lo, hi int64) Set {
	return shard.NewRange(shards, lo, hi, func() shard.Set { return skiplist.NewVB() })
}

// NewVBSkipShardedArenaRange is NewVBSkipShardedRange with a private
// height-classed tower arena per shard.
func NewVBSkipShardedArenaRange(shards int, lo, hi int64) Set {
	return shard.NewRange(shards, lo, hi, func() shard.Set { return skiplist.NewVBArena() })
}
