package harris

import (
	"sync/atomic"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

// The Marker variant reproduces the RTTI optimization of the paper's
// Java implementation. In Java, marked and unmarked states are two
// subclasses of a node class, so traversals learn a node's deletion
// state with `instanceof` instead of unwrapping an
// AtomicMarkableReference. The Go analog: logical deletion CASes a
// fresh immutable *marker node* in behind the victim —
//
//	victim.next: succ  ==>  victim.next: marker{next: succ}
//
// A node is logically deleted iff its successor is a marker. Ordinary
// reads of next are a single load (no wrapper cell), which is exactly
// the saving the paper measures on read-dominated workloads.
//
// Marker nodes are immutable after construction: their next pointer
// never changes, so unlinking CASes the predecessor straight to
// marker.next.

type markNode struct {
	val    int64
	marker bool // immutable; true for marker nodes
	next   atomic.Pointer[markNode]
}

func newMarkNode(v int64, next *markNode) *markNode {
	n := &markNode{val: v}
	n.next.Store(next)
	return n
}

// Marker is the Harris-Michael list with RTTI-style marker nodes.
type Marker struct {
	head *markNode
	tail *markNode

	// probes, when non-nil, receives contention events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the chaos failpoints (internal/failpoint).
	fps *failpoint.Set

	// budget is the failed-CAS retry budget K (0 = unbounded retries, atomic for mid-run retuning);
	// retry aggregates what the escalators saw. See AMR.
	budget atomic.Int32
	retry  obs.RetryCounter
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the set between goroutines.
func (s *Marker) SetProbes(p *obs.Probes) { s.probes = p }

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the set between goroutines.
func (s *Marker) SetFailpoints(fp *failpoint.Set) { s.fps = fp }

// SetRetryBudget sets the failed-CAS retry budget K: past K restarts an
// update backs off between attempts. 0 restores unbounded retries.
// Call before sharing the set.
func (s *Marker) SetRetryBudget(k int) { s.budget.Store(int32(k)) }

// RetryStats reports the aggregated restart/escalation tallies.
func (s *Marker) RetryStats() obs.RetryStats { return s.retry.Stats() }

// NewMarker returns an empty Harris-Michael (marker variant) set.
func NewMarker() *Marker {
	// The tail's successor is a permanent non-marker stand-in so that
	// "is the successor a marker" needs no nil check anywhere.
	end := &markNode{val: MaxSentinel}
	tail := newMarkNode(MaxSentinel, end)
	head := newMarkNode(MinSentinel, tail)
	return &Marker{head: head, tail: tail}
}

// findFrom locates the window (prev, curr), prev.val < v <= curr.val,
// walking from the anchor — head for Insert and Remove, the pass's
// anchor for the batches — and unlinking every logically deleted node
// (one whose successor is a marker) it passes. A deleted anchor falls
// back to head, and so does a failed unlink CAS, as in the AMR variant;
// esc counts those internal restarts against the caller's retry budget.
func (s *Marker) findFrom(anchor *markNode, v int64, esc *obs.Escalator) (prev, curr *markNode) {
retry:
	for prev = anchor; ; prev = s.head {
		curr = prev.next.Load()
		if curr.marker {
			// The anchor was deleted since the caller last advanced it;
			// its frozen next points at its marker. Resume from head.
			prev = s.head
			curr = prev.next.Load()
		}
		for {
			succ := curr.next.Load()
			for succ.marker {
				// curr is deleted; snip curr and its marker together. An
				// injected failure takes the same restart path a failed
				// CAS does, without touching the list.
				injected := false
				if fp := s.fps; failpoint.On(fp) {
					injected = fp.Fail(failpoint.SiteUnlink, curr.val)
				}
				if injected || !prev.next.CompareAndSwap(curr, succ.next.Load()) {
					if p := s.probes; obs.On(p) {
						p.Inc(obs.EvCASFail, curr.val)
						p.Inc(obs.EvRestartHead, curr.val)
					}
					esc.Failed(s.probes, curr.val)
					continue retry
				}
				if p := s.probes; obs.On(p) {
					p.Inc(obs.EvHelpedUnlink, curr.val)
				}
				curr = succ.next.Load()
				succ = curr.next.Load()
			}
			if curr.val >= v {
				return prev, curr
			}
			prev, curr = curr, succ
		}
	}
}

// isDeleted reports whether n is logically deleted (successor is a
// marker). n must not itself be a marker.
func isDeleted(n *markNode) bool {
	return n.next.Load().marker
}

// Contains reports whether v is in the set. Wait-free, and — unlike the
// AMR variant — each hop is a single pointer load; the deleted-check of
// the landing node reads the dynamic kind of its successor, the
// `instanceof` of the Java RTTI version.
func (s *Marker) Contains(v int64) bool {
	curr := s.head
	for curr.val < v {
		curr = curr.next.Load()
		if curr.marker {
			// Stepped through a deleted node; the marker's val mirrors
			// its victim's, but skip to the true successor regardless.
			curr = curr.next.Load()
		}
	}
	return curr.val == v && !isDeleted(curr)
}

// Insert adds v to the set and reports whether v was absent:
// insertFrom started from head.
func (s *Marker) Insert(v int64) bool {
	_, ok, _ := s.insertFrom(s.head, v)
	return ok
}

// Remove deletes v from the set and reports whether v was present:
// removeFrom started from head.
func (s *Marker) Remove(v int64) bool {
	_, ok, _ := s.removeFrom(s.head, v)
	return ok
}

// insertFrom is the Harris-Michael insert of key v, locating its window
// from anchor: head for Insert, the pass's anchor for InsertAll. It
// returns the next anchor (the node now holding v), whether v was
// absent, and how many lost link CASes it retried after (findFrom's
// helping-unlink restarts are not among them).
func (s *Marker) insertFrom(anchor *markNode, v int64) (next *markNode, inserted bool, restarts int) {
	esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: true}
	for {
		prev, curr := s.findFrom(anchor, v, &esc)
		if curr.val == v {
			esc.Done(&s.retry)
			return curr, false, restarts
		}
		// An injected CAS failure skips the real CAS (which would
		// succeed) and takes the same restart path a lost race does.
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			injected = fp.Fail(failpoint.SiteHarrisCAS, v)
		}
		if !injected {
			n := newMarkNode(v, curr)
			if prev.next.CompareAndSwap(curr, n) {
				esc.Done(&s.retry)
				return n, true, restarts
			}
		}
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvCASFail, v)
			p.Inc(obs.EvRestartHead, v)
		}
		esc.Failed(s.probes, v)
		restarts++
	}
}

// removeFrom is the Harris-Michael remove of key v, locating its window
// from anchor: head for Remove, the pass's anchor for RemoveAll. The
// linearization point of a successful remove is the CAS that installs
// the marker; the subsequent unlink is best-effort. It returns the next
// anchor (the window's prev), whether v was present, and how many lost
// races it retried after (findFrom's helping-unlink restarts are not
// among them).
func (s *Marker) removeFrom(anchor *markNode, v int64) (next *markNode, removed bool, restarts int) {
	esc := obs.Escalator{Budget: int(s.budget.Load()), HeadNative: true}
	for {
		prev, curr := s.findFrom(anchor, v, &esc)
		if curr.val != v {
			esc.Done(&s.retry)
			return prev, false, restarts
		}
		succ := curr.next.Load()
		if succ.marker {
			// Lost the race to a competing remove; re-find.
			if p := s.probes; obs.On(p) {
				p.Inc(obs.EvRestartHead, v)
			}
			esc.Failed(s.probes, v)
			restarts++
			continue
		}
		// An injected failure of the marker-install CAS takes the same
		// restart path a lost race does, without touching the list.
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			injected = fp.Fail(failpoint.SiteHarrisCAS, v)
		}
		//lint:ignore hotalloc the marker node IS the deletion mark in this variant; removal allocates it by design (and recycling would re-introduce ABA)
		m := &markNode{val: curr.val, marker: true}
		m.next.Store(succ)
		if injected || !curr.next.CompareAndSwap(succ, m) {
			if p := s.probes; obs.On(p) {
				p.Inc(obs.EvCASFail, v)
				p.Inc(obs.EvRestartHead, v)
			}
			esc.Failed(s.probes, v)
			restarts++
			continue
		}
		// Best-effort physical removal of curr and its marker; a failed
		// attempt is left to a future helper (EvHelpedUnlink there). An
		// injected failure here exercises exactly that delegation.
		skipUnlink := false
		if fp := s.fps; failpoint.On(fp) {
			skipUnlink = fp.Fail(failpoint.SiteUnlink, v)
		}
		unlinked := !skipUnlink && prev.next.CompareAndSwap(curr, succ)
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvLogicalDelete, v)
			if unlinked {
				p.Inc(obs.EvPhysicalUnlink, v)
			}
		}
		esc.Done(&s.retry)
		return prev, true, restarts
	}
}

// Len counts the live elements by traversal; exact at quiescence.
func (s *Marker) Len() int {
	n := 0
	curr := s.head.next.Load()
	for curr.val != MaxSentinel || curr.marker {
		succ := curr.next.Load()
		if curr.marker {
			curr = succ
			continue
		}
		if !succ.marker {
			n++
		}
		curr = succ
	}
	return n
}

// Snapshot returns the live elements in ascending order; exact at
// quiescence.
func (s *Marker) Snapshot() []int64 {
	var out []int64
	curr := s.head.next.Load()
	for curr.val != MaxSentinel || curr.marker {
		succ := curr.next.Load()
		if curr.marker {
			curr = succ
			continue
		}
		if !succ.marker {
			out = append(out, curr.val)
		}
		curr = succ
	}
	return out
}
