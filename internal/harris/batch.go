package harris

import "listset/internal/batch"

// Batched and ranged operations for the Harris-Michael marker list.
//
// The lock-based lists batch by holding a window lock while linking a
// whole run of keys; a lock-free list has no lock to hold, so the
// batch here is a CAS batch with per-key retry: one sorted pass keeps
// an anchor node and runs each key's insertFrom/removeFrom from it —
// the very step a single-key Insert or Remove runs from head — so
// every key is still applied by its own CAS, and only that key retries
// on a lost race. Stale anchors are harmless: marking a node rewrites
// its next pointer (to the marker), so any insert/unlink CAS through a
// deleted anchor fails and the key re-finds from head — the same
// observation that makes the single-key algorithm safe.

// InsertAll adds every key of keys to the set and returns how many
// were absent (and are now present). The batch is sorted and
// deduplicated first; each key is inserted by its own CAS and
// linearizes individually, in ascending key order, within the call.
func (s *Marker) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	inserted := 0
	anchor := s.head
	for _, v := range ks {
		var ok bool
		anchor, ok = s.insertFrom(anchor, v, true)
		if ok {
			inserted++
		}
	}
	b.Put()
	return inserted
}

// RemoveAll deletes every key of keys from the set and returns how
// many were present (and are now absent). Per-key CAS retry, ascending
// order; each key's remove linearizes at its marker-install CAS.
func (s *Marker) RemoveAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	removed := 0
	anchor := s.head
	for _, v := range ks {
		var ok bool
		anchor, ok = s.removeFrom(anchor, v, true)
		if ok {
			removed++
		}
	}
	b.Put()
	return removed
}

// ContainsAll reports how many of the keys are in the set. One
// wait-free pass serves the whole sorted batch; each key's query
// linearizes individually at the load that reached its position.
func (s *Marker) ContainsAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	found := 0
	curr := s.head
	for _, v := range ks {
		for curr.val < v {
			curr = curr.next.Load()
			if curr.marker {
				curr = curr.next.Load()
			}
		}
		if curr.val == v && !isDeleted(curr) {
			found++
		}
	}
	b.Put()
	return found
}

// RangeScan returns the live keys in [lo, hi) in ascending order.
// Wait-free; sorted and duplicate-free by construction — real nodes
// along any next-chain carry strictly increasing values (a marker
// mirrors its victim's value but is skipped, and a marker's frozen
// next is always a real node).
func (s *Marker) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	var out []int64
	curr := s.head
	for curr.val < lo {
		curr = curr.next.Load()
		if curr.marker {
			curr = curr.next.Load()
		}
	}
	for curr.val < hi {
		if !isDeleted(curr) {
			out = append(out, curr.val)
		}
		curr = curr.next.Load()
		if curr.marker {
			curr = curr.next.Load()
		}
	}
	return out
}

// Ascend calls yield for every live key >= from in ascending order
// until yield returns false or the list ends. Wait-free.
func (s *Marker) Ascend(from int64, yield func(int64) bool) {
	curr := s.head
	for curr.val < from {
		curr = curr.next.Load()
		if curr.marker {
			curr = curr.next.Load()
		}
	}
	for curr.val != MaxSentinel {
		if !isDeleted(curr) && !yield(curr.val) {
			break
		}
		curr = curr.next.Load()
		if curr.marker {
			curr = curr.next.Load()
		}
	}
}
