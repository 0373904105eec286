package core

import (
	"listset/internal/batch"
	"listset/internal/failpoint"
	"listset/internal/obs"
)

// Batched and ranged operations for VBL: the paper's one-window
// validation protocol (Section 3.1) generalized to k windows in one
// ordered pass.
//
// The idea: a batch of k keys, sorted and deduplicated, visits its
// windows in ascending list order. The pass keeps an *anchor* — the
// last node known to precede every remaining key — and traverses from
// it instead of from head, so the whole batch costs one O(n) walk plus
// k window validations instead of k full traversals. Each key is
// applied with the SAME value-aware try-lock protocol the single-key
// operations use, so each key linearizes individually at its window's
// store (there is no whole-batch atomicity — that would demand locking
// all k windows at once, exactly the coarse serialization the paper
// proves unnecessary). On a failed validation the pass restarts from
// the anchor, not from head: the anchor's node may since have been
// deleted, in which case traverse() falls back to head on its own.
//
// InsertAll adds one more amortization on top: while prev's lock is
// held with prev.next == curr validated, every key of the batch that
// falls strictly inside the open interval (prev.val, curr.val) is
// provably absent, so the pass builds the whole run as a private chain
// and publishes it with a single prev.next store — k' inserts for one
// lock acquisition, all linearizing (in ascending order) at that
// store.

// InsertAll adds every key of keys to the set and returns how many
// were absent (and are now present). The batch is sorted and
// deduplicated first; each key's insert linearizes individually, in
// ascending key order, within the call.
func (s *VBL) InsertAll(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	inserted := 0
	prev := s.head
	i := 0
	for i < len(ks) {
		v := ks[i]
		esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: s.headRestart}
		for {
			if fp := s.fps; failpoint.On(fp) {
				fp.Do(failpoint.SiteVBLTraverse, v)
			}
			var curr *node
			prev, curr = s.traverse(v, prev)
			if curr.val == v {
				// Present: nothing to lock. The node holding v becomes
				// the anchor — it precedes every remaining (larger) key.
				esc.Done(&s.retry)
				prev = curr
				i++
				break
			}
			injected := false
			if fp := s.fps; failpoint.On(fp) {
				if injected = fp.Fail(failpoint.SiteVBLLockNextAt, v); injected {
					s.countInjectedFail(obs.EvValFailSucc, v)
				}
			}
			if injected || !prev.lockNextAt(curr, !s.noPreValidate, s.probes) {
				prev = s.restartBatch(prev, &esc, v)
				continue
			}
			// Window (prev, curr) is locked and validated: every batch
			// key in (prev.val, curr.val) is absent. Build the run as a
			// private ascending chain and publish it with one store.
			n := s.newNode(g, v)
			n.next.Store(curr)
			chainHead, chainTail := n, n
			inserted++
			i++
			for i < len(ks) && ks[i] < curr.val {
				m := s.newNode(g, ks[i])
				m.next.Store(curr)
				chainTail.next.Store(m)
				chainTail = m
				inserted++
				i++
			}
			prev.next.Store(chainHead)
			prev.lock.Unlock()
			esc.Done(&s.retry)
			// The chain's tail precedes every remaining key (its value
			// is below curr.val <= ks[i]), so it is the next anchor.
			prev = chainTail
			break
		}
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
	prev := s.head
	for _, v := range ks {
		esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: s.headRestart}
		for {
			if fp := s.fps; failpoint.On(fp) {
				fp.Do(failpoint.SiteVBLTraverse, v)
			}
			var curr *node
			prev, curr = s.traverse(v, prev)
			if curr.val != v {
				// Absent: prev precedes every remaining key and stays
				// the anchor.
				esc.Done(&s.retry)
				break
			}
			// From here this is the single-key Remove window protocol
			// verbatim: lock prev by value, re-read the successor under
			// the lock, lock it by identity, then mark and unlink.
			next := curr.next.Load()
			injected := false
			if fp := s.fps; failpoint.On(fp) {
				if injected = fp.Fail(failpoint.SiteVBLLockNextAtValue, v); injected {
					s.countInjectedFail(obs.EvValFailValue, v)
				}
			}
			if injected || !prev.lockNextAtValue(v, !s.noPreValidate, s.probes) {
				prev = s.restartBatch(prev, &esc, v)
				continue
			}
			curr = prev.next.Load()
			injected = false
			if fp := s.fps; failpoint.On(fp) {
				if injected = fp.Fail(failpoint.SiteVBLLockNextAt, v); injected {
					s.countInjectedFail(obs.EvValFailSucc, v)
				}
			}
			if injected || !curr.lockNextAt(next, !s.noPreValidate, s.probes) {
				prev.lock.Unlock()
				prev = s.restartBatch(prev, &esc, v)
				continue
			}
			if fp := s.fps; failpoint.On(fp) {
				fp.Do(failpoint.SiteUnlink, v)
			}
			curr.deleted.Store(true) // logical deletion
			prev.next.Store(next)    // physical unlink
			curr.lock.Unlock()
			prev.lock.Unlock()
			if p := s.probes; obs.On(p) {
				p.Inc(obs.EvLogicalDelete, v)
				p.Inc(obs.EvPhysicalUnlink, v)
			}
			if g.Active() {
				g.Retire(curr)
			}
			removed++
			esc.Done(&s.retry)
			// prev still precedes every remaining key: keep it as the
			// anchor.
			break
		}
	}
	g.Unpin()
	b.Put()
	return removed
}

// restartBatch applies the batch pass's restart policy after a failed
// window validation: restart from the anchor (traverse falls back to
// head if the anchor has been deleted), escalating exactly like the
// single-key restart, and counts the batch-specific event on top.
func (s *VBL) restartBatch(prev *node, esc *obs.Escalator, v int64) *node {
	if p := s.probes; obs.On(p) {
		p.Inc(obs.EvBatchWindowRestart, v)
	}
	return s.restart(prev, esc, v)
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

// Load bulk-inserts keys with a single merge walk: O(n + k) total, and
// O(k) on an empty set, where each new node is appended at the frozen
// tail of the walk. It takes no locks and must only be used at
// quiescence (setup/population), before the set is shared. Returns how
// many keys were absent.
func (s *VBL) Load(keys []int64) int {
	b := batch.Prep(keys)
	ks := b.K
	g := s.arena.Pin()
	added := 0
	prev := s.head
	curr := prev.next.Load()
	for _, v := range ks {
		for curr.val < v {
			prev = curr
			curr = curr.next.Load()
		}
		if curr.val == v {
			prev = curr
			curr = curr.next.Load()
			continue
		}
		n := s.newNode(g, v)
		n.next.Store(curr)
		prev.next.Store(n)
		prev = n
		added++
	}
	g.Unpin()
	b.Put()
	return added
}
