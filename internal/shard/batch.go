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
// Each sub-batch reaches its shard through the batch surface the slot
// resolved at construction (batch.AsBatcher): the shard's native
// surface when it has one, else internal/batch's per-key fallback,
// which takes the already-canonical sub-slice as it is. Load and the
// scans resolve batch.AsLoader and AsRanger per call.

// batchOp is one per-shard batch primitive: apply ks to the slot's
// shard and return the effective-operation count.
type batchOp func(sl *slot, ks []int64) int

// apply sorts and deduplicates keys, splits them into per-shard
// sub-batches, applies op to each non-empty one in shard order and
// returns the summed count.
func (s *Sharded) apply(keys []int64, op batchOp) int {
	b := batch.Prep(keys)
	defer b.Put()
	ks := b.K
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
		total += op(&s.slots[i], part)
	}
	return total
}

// InsertAll adds every key of keys and returns how many were absent.
// The batch is sorted and deduplicated once, here; each key linearizes
// individually in its owning shard.
func (s *Sharded) InsertAll(keys []int64) int {
	return s.apply(keys, func(sl *slot, ks []int64) int { return sl.b.InsertAll(ks) })
}

// RemoveAll deletes every key of keys and returns how many were
// present.
func (s *Sharded) RemoveAll(keys []int64) int {
	return s.apply(keys, func(sl *slot, ks []int64) int { return sl.b.RemoveAll(ks) })
}

// ContainsAll reports how many of the keys are in the set.
func (s *Sharded) ContainsAll(keys []int64) int {
	return s.apply(keys, func(sl *slot, ks []int64) int { return sl.b.ContainsAll(ks) })
}

// Load bulk-inserts keys and returns how many were absent: a shard
// with a native Load (the VB skip list: quiescent use only) takes its
// sub-batch in one unsynchronized pass, any other shard through its
// InsertAll.
func (s *Sharded) Load(keys []int64) int {
	return s.apply(keys, func(sl *slot, ks []int64) int { return batch.AsLoader(sl.set).Load(ks) })
}

// RangeScan returns the keys in [lo, hi) in ascending order: the
// partition is order-preserving, so the concatenation of per-shard
// scans (restricted to the shards that can intersect [lo, hi)) is
// already sorted.
func (s *Sharded) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	var out []int64
	for i := s.shardOf(lo); i <= s.shardOf(hi-1); i++ {
		out = append(out, batch.AsRanger(s.slots[i].set).RangeScan(lo, hi)...)
	}
	return out
}

// Ascend calls yield for every key >= from in ascending order until
// yield returns false or the set ends, walking the shards in partition
// order.
func (s *Sharded) Ascend(from int64, yield func(int64) bool) {
	stopped := false
	for i := s.shardOf(from); i < len(s.slots) && !stopped; i++ {
		//lint:ignore hotalloc the stop-propagating wrapper must capture yield and stopped to end the walk across shard boundaries; one closure per shard per scan, amortized over the whole walk
		batch.AsRanger(s.slots[i].set).Ascend(from, func(v int64) bool {
			if !yield(v) {
				stopped = true
				return false
			}
			return true
		})
	}
}

var (
	_ batch.Batcher = (*Sharded)(nil)
	_ batch.Ranger  = (*Sharded)(nil)
	_ batch.Loader  = (*Sharded)(nil)
)
