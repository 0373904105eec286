package core

import "listset/internal/batch"

// Batched and ranged operations for VBL: the paper's one-window
// validation protocol (Section 3.1) applied to k windows in one
// ordered pass.
//
// The idea: a batch of k keys, sorted and deduplicated, visits its
// windows in ascending list order. The pass keeps an *anchor* — the
// last node known to precede every remaining key — and runs each key's
// insertFrom/removeFrom from it instead of from head, so the whole
// batch costs one O(n) walk plus k window validations instead of k
// full traversals. A single-key Insert or Remove IS that per-key step,
// started from head, so each key linearizes individually at its
// window's store (there is no whole-batch atomicity — that would
// demand locking all k windows at once, exactly the coarse
// serialization the paper proves unnecessary). On a failed validation
// the step restarts from the anchor, not from head: the anchor's node
// may since have been deleted, in which case traverse() falls back to
// head on its own.
//
// InsertAll adds one more amortization on top: while prev's lock is
// held with prev.next == curr validated, every key of the batch that
// falls strictly inside the open interval (prev.val, curr.val) is
// provably absent, so insertFrom builds the whole run as a private
// chain and publishes it with a single prev.next store — k' inserts
// for one lock acquisition.

// InsertAll adds every key of keys to the set and returns how many
// were absent (and are now present). The batch is sorted and
// deduplicated first; each key's insert linearizes individually, in
// ascending key order, within the call.
func (s *VBL) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	inserted := 0
	anchor := s.head
	for i := 0; i < len(ks); {
		var n int
		anchor, n = s.insertFrom(g, anchor, ks[i], ks[i+1:], true)
		inserted += n
		i += max(n, 1) // a present key consumes itself only
	}
	g.Unpin()
	b.Put()
	return inserted
}

// RemoveAll deletes every key of keys from the set and returns how
// many were present (and are now absent). The batch is sorted and
// deduplicated first; each key's remove linearizes individually, in
// ascending key order, within the call.
func (s *VBL) RemoveAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	removed := 0
	anchor := s.head
	for _, v := range ks {
		var ok bool
		anchor, ok = s.removeFrom(g, anchor, v, true)
		if ok {
			removed++
		}
	}
	g.Unpin()
	b.Put()
	return removed
}

// ContainsAll reports how many of the keys are in the set. One
// wait-free pass serves the whole sorted batch: the walk simply does
// not rewind between keys. Each key's query linearizes individually at
// the pointer load that reached the first node with val >= key.
func (s *VBL) ContainsAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	found := 0
	curr := s.head
	for _, v := range ks {
		for curr.val < v {
			curr = curr.next.Load()
		}
		if curr.val == v {
			found++
		}
	}
	g.Unpin()
	b.Put()
	return found
}

// RangeScan returns the keys in [lo, hi) in ascending order. The scan
// is wait-free — the same unsynchronized pointer chase as Contains —
// and the result is sorted and duplicate-free by construction: values
// along any next-chain are strictly increasing, even through nodes
// unlinked mid-scan. Each reported (and each skipped) key linearizes
// individually at the load that passed its position.
func (s *VBL) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	g := s.arena.Pin()
	var out []int64
	curr := s.head
	for curr.val < lo {
		curr = curr.next.Load()
	}
	for curr.val < hi {
		out = append(out, curr.val)
		curr = curr.next.Load()
	}
	g.Unpin()
	return out
}

// Ascend calls yield for every key >= from in ascending order until
// yield returns false or the list ends. The traversal is wait-free;
// the epoch stays pinned for the duration of the iteration, so yield
// should be short.
func (s *VBL) Ascend(from int64, yield func(int64) bool) {
	g := s.arena.Pin()
	curr := s.head
	for curr.val < from {
		curr = curr.next.Load()
	}
	for curr.val != MaxSentinel {
		if !yield(curr.val) {
			break
		}
		curr = curr.next.Load()
	}
	g.Unpin()
}
