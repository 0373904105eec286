// Package batch owns the batch surface (DESIGN.md §13): the Batcher,
// Ranger and Loader interfaces, the one fallback that serves them for
// a set with no native form, and the pooled scratch buffers every
// batch entry point sorts and deduplicates its keys into.
//
// The contract is written here once: a batch behaves exactly like its
// sorted, deduplicated keys applied one at a time in ascending order,
// each key its own linearizable operation, and the returned count is
// the number of keys that took effect. There is no whole-batch
// atomicity — that would require locking every window at once, the
// coarse serialization the paper's concurrency-optimality argument
// exists to avoid. Native implementations keep the contract with one
// amortized pass; the fallback keeps it with a per-key loop.
//
// The scratch unit is a Buf, not a bare slice: sync.Pool stores
// pointers, and returning a bare []int64 through an interface would
// re-box the slice header on every Put. A Buf round-trips as one
// stable pointer, so the steady-state batch path allocates nothing.
package batch

import (
	"slices"
	"sync"
)

// Buf is a pooled scratch key buffer. Use Get (or Prep) to obtain one
// and Put to return it; K is valid until Put.
type Buf struct {
	// K is the scratch key slice. Callers may re-slice it freely; Put
	// restores it from the retained backing array.
	K []int64
}

var pool = sync.Pool{
	New: func() any { return &Buf{K: make([]int64, 0, 128)} },
}

// Get returns an empty scratch buffer (len(K) == 0) from the pool.
func Get() *Buf {
	b := pool.Get().(*Buf)
	b.K = b.K[:0]
	return b
}

// Put returns b to the pool. b.K must not be used afterwards.
func (b *Buf) Put() {
	pool.Put(b)
}

// Prep returns a pooled buffer holding a copy of keys, sorted
// ascending with duplicates removed — the canonical form every batch
// operation works on. The input is not modified. Release the result
// with Put.
func Prep(keys []int64) *Buf {
	b := Get()
	b.K = append(b.K, keys...)
	slices.Sort(b.K)
	b.K = slices.Compact(b.K)
	return b
}

// Span returns the sub-slice of ks (which must be sorted ascending)
// whose keys fall in the half-open range [lo, hi), found by binary
// search. The result aliases ks; no copy is made. This is how the
// sharded façade splits one sorted batch into per-shard sub-batches.
func Span(ks []int64, lo, hi int64) []int64 {
	i, _ := slices.BinarySearch(ks, lo)
	j, _ := slices.BinarySearch(ks, hi)
	return ks[i:j]
}

// Batcher is the batch surface of a set: apply many keys in one call.
// Counts are per effective key: InsertAll returns how many keys were
// absent (and are now present), RemoveAll how many were present,
// ContainsAll how many are members.
type Batcher interface {
	InsertAll(keys []int64) int
	RemoveAll(keys []int64) int
	ContainsAll(keys []int64) int
}

// Ranger is the ordered-read surface of a set. RangeScan returns the
// keys in the half-open range [lo, hi), ascending, duplicate-free;
// each key's presence or absence linearizes individually during the
// scan. Ascend iterates keys >= from in ascending order until yield
// returns false.
type Ranger interface {
	RangeScan(lo, hi int64) []int64
	Ascend(from int64, yield func(int64) bool)
}

// Loader is the bulk-population surface of a set: Load inserts keys
// and returns how many were absent. A native Load is for setup at
// quiescence: it takes no locks and must not race with other
// operations.
type Loader interface {
	Load(keys []int64) int
}

// Point is the per-key surface the fallback drives.
type Point interface {
	Insert(v int64) bool
	Remove(v int64) bool
	Contains(v int64) bool
}

// Snapshotter lists a set's keys in ascending order; the fallback
// Ranger filters that list.
type Snapshotter interface {
	Snapshot() []int64
}

// AsBatcher returns s's native batch surface when it has one, or the
// per-key fallback.
func AsBatcher(s Point) Batcher {
	if b, ok := s.(Batcher); ok {
		return b
	}
	return perKey{s}
}

// AsLoader returns s's native bulk-load surface when it has one, or
// the fallback, which loads through s's batch surface: native
// InsertAll where s has one, the per-key loop otherwise.
func AsLoader(s Point) Loader {
	if l, ok := s.(Loader); ok {
		return l
	}
	return perKey{s}
}

// AsRanger returns s's native range surface when it has one, or a
// fallback that filters s's Snapshot.
func AsRanger(s Snapshotter) Ranger {
	if r, ok := s.(Ranger); ok {
		return r
	}
	return snapshotRange{s}
}

// perKey is the fallback batch surface: it applies the canonical
// (sorted, deduplicated) batch one key at a time, which is the
// contract itself without the one-pass amortization.
type perKey struct{ s Point }

func (f perKey) InsertAll(keys []int64) int   { return f.each(keys, opInsert) }
func (f perKey) RemoveAll(keys []int64) int   { return f.each(keys, opRemove) }
func (f perKey) ContainsAll(keys []int64) int { return f.each(keys, opContains) }
func (f perKey) Load(keys []int64) int        { return AsBatcher(f.s).InsertAll(keys) }

const (
	opInsert = iota
	opRemove
	opContains
)

// each applies op to every key of the canonical batch in ascending
// order and returns how many calls reported true. Keys already
// strictly ascending, as the sharded façade's sub-batches are, are
// their own canonical form and skip Prep. The switch, not a method
// value, picks the operation, so each key costs one interface call.
func (f perKey) each(keys []int64, op int) int {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			b := Prep(keys)
			defer b.Put()
			keys = b.K
			break
		}
	}
	n := 0
	for _, v := range keys {
		var ok bool
		switch op {
		case opInsert:
			ok = f.s.Insert(v)
		case opRemove:
			ok = f.s.Remove(v)
		default:
			ok = f.s.Contains(v)
		}
		if ok {
			n++
		}
	}
	return n
}

// snapshotRange is the fallback range surface.
type snapshotRange struct{ s Snapshotter }

func (f snapshotRange) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	var out []int64
	for _, v := range f.s.Snapshot() {
		if v >= lo && v < hi {
			out = append(out, v)
		}
	}
	return out
}

func (f snapshotRange) Ascend(from int64, yield func(int64) bool) {
	for _, v := range f.s.Snapshot() {
		if v >= from && !yield(v) {
			return
		}
	}
}
