package lazy

import (
	"listset/internal/batch"
	"listset/internal/obs"
)

// Batched and ranged operations for the Lazy list: the same one-pass
// multi-window protocol as core's VBL batch (see core/batch.go for the
// anchor argument), adapted to Lazy's discipline — the window is
// locked BOTH sides (prev and curr) before the validation, and a
// failed validation restarts from head, because Lazy has no
// value-aware validation to make a stale anchor safe to re-validate
// locally. Each key runs insertFrom/removeFrom from the pass's anchor;
// a single-key Insert or Remove is that same step started from head.
// The anchor pays off on the common success path: after a served key
// the pass resumes from the still-adjacent window edge instead of from
// head.

// InsertAll adds every key of keys to the set and returns how many
// were absent (and are now present). The batch is sorted and
// deduplicated first; each key's insert linearizes individually, in
// ascending key order, within the call.
func (l *List) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := l.arena.Pin()
	inserted := 0
	anchor := l.head
	for i := 0; i < len(ks); {
		var n, restarts int
		anchor, n, restarts = l.insertFrom(g, anchor, ks[i], ks[i+1:])
		l.countBatchRestarts(ks[i], restarts)
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
func (l *List) RemoveAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := l.arena.Pin()
	removed := 0
	anchor := l.head
	for _, v := range ks {
		var ok bool
		var restarts int
		anchor, ok, restarts = l.removeFrom(g, anchor, v)
		l.countBatchRestarts(v, restarts)
		if ok {
			removed++
		}
	}
	g.Unpin()
	b.Put()
	return removed
}

// countBatchRestarts counts a batch key's failed window validations as
// batch-window restarts, on top of the restart events the per-key step
// itself recorded; single-key operations never count them.
func (l *List) countBatchRestarts(v int64, restarts int) {
	if p := l.probes; obs.On(p) {
		for ; restarts > 0; restarts-- {
			p.Inc(obs.EvBatchWindowRestart, v)
		}
	}
}

// ContainsAll reports how many of the keys are in the set. One
// wait-free pass serves the whole sorted batch; each key's query
// linearizes individually at the load that reached its position.
func (l *List) ContainsAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := l.arena.Pin()
	found := 0
	curr := l.head
	for _, v := range ks {
		for curr.val < v {
			curr = curr.next.Load()
		}
		if curr.val == v && !curr.marked.Load() {
			found++
		}
	}
	g.Unpin()
	b.Put()
	return found
}

// RangeScan returns the unmarked keys in [lo, hi) in ascending order.
// Wait-free; sorted and duplicate-free by construction (values along
// any next-chain strictly increase). Each key's presence linearizes
// individually at the load that passed its position.
func (l *List) RangeScan(lo, hi int64) []int64 {
	if hi <= lo {
		return nil
	}
	g := l.arena.Pin()
	var out []int64
	curr := l.head
	for curr.val < lo {
		curr = curr.next.Load()
	}
	for curr.val < hi {
		if !curr.marked.Load() {
			out = append(out, curr.val)
		}
		curr = curr.next.Load()
	}
	g.Unpin()
	return out
}

// Ascend calls yield for every unmarked key >= from in ascending order
// until yield returns false or the list ends. Wait-free; the epoch
// stays pinned for the duration, so yield should be short.
func (l *List) Ascend(from int64, yield func(int64) bool) {
	g := l.arena.Pin()
	curr := l.head
	for curr.val < from {
		curr = curr.next.Load()
	}
	for curr.val != MaxSentinel {
		if !curr.marked.Load() && !yield(curr.val) {
			break
		}
		curr = curr.next.Load()
	}
	g.Unpin()
}

// Load bulk-inserts keys with a single merge walk: O(n + k) total,
// O(k) on an empty set. It takes no locks and must only be used at
// quiescence (setup/population), before the list is shared. Returns
// how many keys were absent.
func (l *List) Load(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := l.arena.Pin()
	added := 0
	prev := l.head
	curr := prev.next.Load()
	for _, v := range ks {
		for curr.val < v {
			prev = curr
			curr = curr.next.Load()
		}
		if curr.val == v {
			continue
		}
		n := l.newNode(g, v)
		n.next.Store(curr)
		prev.next.Store(n)
		prev = n
		added++
	}
	g.Unpin()
	b.Put()
	return added
}
