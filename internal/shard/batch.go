package shard

import (
	"listset/internal/batch"
	"listset/internal/obs"
)

// Batched and ranged operations for the sharded façade: sort and
// deduplicate the batch ONCE, split it into per-shard sub-batches by
// binary search against the shard boundaries (the partition is
// monotone, so each sub-batch is one contiguous sub-slice — no copy),
// apply each sub-batch to its shard, and sum the results. Because the
// partition is a pure function of the key, each key is still served by
// exactly one shard and linearizes at its per-shard point, so the
// composition argument of the package doc carries over unchanged.
//
// Shards whose backing set implements Batcher get the sub-batch in one
// native call; others fall back to a per-key loop over the same
// (already sorted, deduplicated) sub-slice.

// Batcher is the native batch surface a shard's backing set may
// provide. Keys passed down are sorted and deduplicated already;
// re-preparing them in the shard is cheap (it is a no-op sort) but
// wasteful, which is why the façade calls the native method directly.
type Batcher interface {
	InsertAll(keys []int64) int
	RemoveAll(keys []int64) int
	ContainsAll(keys []int64) int
}

// Ranger is the native range surface a shard's backing set may provide.
type Ranger interface {
	RangeScan(lo, hi int64) []int64
	Ascend(from int64, yield func(int64) bool)
}

// Loader is the native bulk-load surface a shard's backing set may
// provide.
type Loader interface {
	Load(keys []int64) int
}

// batchOp is one per-shard batch primitive: apply ks to the slot's set
// and return the effective-operation count.
type batchOp func(set Set, ks []int64) int

func batchInsert(set Set, ks []int64) int {
	if b, ok := set.(Batcher); ok {
		return b.InsertAll(ks)
	}
	n := 0
	for _, v := range ks {
		if set.Insert(v) {
			n++
		}
	}
	return n
}

func batchRemove(set Set, ks []int64) int {
	if b, ok := set.(Batcher); ok {
		return b.RemoveAll(ks)
	}
	n := 0
	for _, v := range ks {
		if set.Remove(v) {
			n++
		}
	}
	return n
}

func batchContains(set Set, ks []int64) int {
	if b, ok := set.(Batcher); ok {
		return b.ContainsAll(ks)
	}
	n := 0
	for _, v := range ks {
		if set.Contains(v) {
			n++
		}
	}
	return n
}

func batchLoad(set Set, ks []int64) int {
	if l, ok := set.(Loader); ok {
		return l.Load(ks)
	}
	n := 0
	for _, v := range ks {
		if set.Insert(v) {
			n++
		}
	}
	return n
}

// apply splits the sorted, deduplicated keys ks into per-shard
// sub-batches, applies op to each non-empty one in shard order and
// returns the summed count.
func (s *Sharded) apply(ks []int64, op batchOp) int {
	if len(ks) == 0 {
		return 0
	}
	// Locate each shard's sub-slice by binary search against its key
	// span [start, end): start bounds come from the monotone partition,
	// so the sub-slices tile ks exactly.
	total := 0
	lo, hi := s.shardOf(ks[0]), s.shardOf(ks[len(ks)-1])
	rest := ks
	for i := lo; i <= hi && len(rest) > 0; i++ {
		part := rest
		if i < hi {
			part = batch.Span(rest, rest[0], s.boundary(i+1))
		}
		rest = rest[len(part):]
		if len(part) == 0 {
			continue
		}
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvBatchSplit, part[0])
		}
		total += op(s.slots[i].set, part)
	}
	return total
}

// InsertAll adds every key of keys and returns how many were absent.
// The batch is sorted and deduplicated once, here; each key linearizes
// individually in its owning shard.
func (s *Sharded) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	n := s.apply(b.K, batchInsert)
	b.Put()
	return n
}

// RemoveAll deletes every key of keys and returns how many were
// present.
func (s *Sharded) RemoveAll(keys []int64) int {
	b := batch.Prep(keys)
	n := s.apply(b.K, batchRemove)
	b.Put()
	return n
}

// ContainsAll reports how many of the keys are in the set.
func (s *Sharded) ContainsAll(keys []int64) int {
	b := batch.Prep(keys)
	n := s.apply(b.K, batchContains)
	b.Put()
	return n
}

// Load bulk-inserts keys (see the lists' Load: quiescent use only) and
// returns how many were absent.
func (s *Sharded) Load(keys []int64) int {
	b := batch.Prep(keys)
	n := s.apply(b.K, batchLoad)
	b.Put()
	return n
}

// RangeScan returns the keys in [lo, hi) in ascending order: the
// partition is order-preserving, so the concatenation of per-shard
// scans (restricted to the shards that can intersect [lo, hi)) is
// already sorted. Shards without a native RangeScan contribute their
// filtered Snapshot.
func (s *Sharded) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	var out []int64
	for i := s.shardOf(lo); i <= s.shardOf(hi-1); i++ {
		set := s.slots[i].set
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

// Ascend calls yield for every key >= from in ascending order until
// yield returns false or the set ends, walking the shards in partition
// order. Shards without a native Ascend iterate their Snapshot.
func (s *Sharded) Ascend(from int64, yield func(int64) bool) {
	stopped := false
	for i := s.shardOf(from); i < len(s.slots) && !stopped; i++ {
		set := s.slots[i].set
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
}

var (
	_ Batcher = (*Sharded)(nil)
	_ Ranger  = (*Sharded)(nil)
	_ Loader  = (*Sharded)(nil)
)
