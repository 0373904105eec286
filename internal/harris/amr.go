// Package harris implements the lock-free Harris-Michael list-based set
// (Harris DISC 2001; Michael SPAA 2002) with the wait-free contains of
// Herlihy & Shavit's book — the lock-free baseline of the paper.
//
// Two variants are provided, mirroring the two Java implementations the
// paper benchmarks:
//
//   - AMR: the textbook variant built on an AtomicMarkableReference
//     equivalent — each node's (next, marked) pair lives in an immutable
//     heap cell swapped atomically. Every read of a next pointer pays an
//     extra indirection, the overhead the paper measures against.
//   - Marker (marker.go): the RTTI-style optimization suggested by
//     Heller et al. — deletion marks are carried by the dynamic type of
//     a successor node instead of a wrapper cell, restoring
//     single-indirection traversals.
//
// In both variants remove performs logical deletion with a CAS and then
// best-effort physical removal; traversing updates help unlink marked
// nodes and restart when their unlinking CAS fails — precisely the
// helping that makes the algorithm reject the schedule of Figure 3.
package harris

import (
	"math"
	"sync/atomic"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

// Sentinel values stored in the head and tail nodes.
const (
	MinSentinel = math.MinInt64
	MaxSentinel = math.MaxInt64
)

// amrCell is the immutable (next, marked) pair of the AMR variant: the
// Go equivalent of Java's AtomicMarkableReference state. A node is
// logically deleted iff its cell's marked flag is set.
type amrCell struct {
	next   *amrNode
	marked bool
}

type amrNode struct {
	val  int64
	cell atomic.Pointer[amrCell]
}

func newAMRNode(v int64, next *amrNode) *amrNode {
	n := &amrNode{val: v}
	n.cell.Store(&amrCell{next: next})
	return n
}

// AMR is the Harris-Michael list built on AtomicMarkableReference-style
// (pointer, mark) cells.
type AMR struct {
	head *amrNode
	tail *amrNode

	// probes, when non-nil, receives contention events (internal/obs).
	probes *obs.Probes
	// fps, when non-nil, arms the chaos failpoints (internal/failpoint).
	fps *failpoint.Set

	// Ladder is the failed-CAS retry budget and its tally. Harris
	// restarts natively from head, so the ladder's only live stage is
	// the backoff at K.
	obs.Ladder
}

// SetProbes attaches (or with nil detaches) the contention-event
// counters. Call it before sharing the set between goroutines.
func (s *AMR) SetProbes(p *obs.Probes) { s.probes = p }

// SetFailpoints attaches (or with nil detaches) the fault-injection
// layer. Call it before sharing the set between goroutines.
func (s *AMR) SetFailpoints(fp *failpoint.Set) { s.fps = fp }

// NewAMR returns an empty Harris-Michael (AMR variant) set.
func NewAMR() *AMR {
	tail := newAMRNode(MaxSentinel, nil)
	head := newAMRNode(MinSentinel, tail)
	return &AMR{head: head, tail: tail}
}

// find locates the window (prev, curr) with prev.val < v <= curr.val,
// physically removing every marked node it encounters on the way
// (Michael's helping). If a removal CAS fails the traversal restarts
// from head — esc counts those internal restarts like the caller's
// own. It returns prev's cell as read, so callers can CAS
// against the exact cell they validated.
func (s *AMR) find(v int64, esc *obs.Escalator) (prev *amrNode, prevCell *amrCell, curr *amrNode) {
retry:
	for {
		prev = s.head
		prevCell = prev.cell.Load()
		curr = prevCell.next
		for {
			currCell := curr.cell.Load()
			for currCell.marked {
				// curr is logically deleted: help unlink it. Failure
				// means a concurrent update changed prev's cell — the
				// paper's Figure 3 shows this restart rejecting an
				// otherwise correct schedule. An injected failure takes
				// the same restart path without touching the list.
				injected := false
				if fp := s.fps; failpoint.On(fp) {
					injected = fp.Fail(failpoint.SiteUnlink, curr.val)
				}
				//lint:ignore hotalloc AMR cells are immutable by design; unlinking allocates the replacement cell (the indirection this variant prices)
				snipped := &amrCell{next: currCell.next}
				if injected || !prev.cell.CompareAndSwap(prevCell, snipped) {
					if p := s.probes; obs.On(p) {
						p.Inc(obs.EvCASFail, curr.val)
					}
					esc.Failed(curr.val)
					continue retry
				}
				if p := s.probes; obs.On(p) {
					p.Inc(obs.EvHelpedUnlink, curr.val)
				}
				prevCell = snipped
				curr = currCell.next
				currCell = curr.cell.Load()
			}
			if curr.val >= v {
				return prev, prevCell, curr
			}
			prev, prevCell = curr, currCell
			curr = currCell.next
		}
	}
}

// Contains reports whether v is in the set. Wait-free: it never helps
// and never restarts; it checks the mark only of the node it lands on.
func (s *AMR) Contains(v int64) bool {
	curr := s.head
	cell := curr.cell.Load()
	for curr.val < v {
		curr = cell.next
		cell = curr.cell.Load()
	}
	return curr.val == v && !cell.marked
}

// Insert adds v to the set and reports whether v was absent.
func (s *AMR) Insert(v int64) bool {
	esc := s.Begin(s.probes, obs.EvRestartHead, false)
	for {
		prev, prevCell, curr := s.find(v, &esc)
		if curr.val == v {
			esc.Done()
			return false
		}
		// An injected CAS failure skips the real CAS (which would
		// succeed) and takes the same restart path a lost race does.
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			injected = fp.Fail(failpoint.SiteHarrisCAS, v)
		}
		if !injected {
			n := newAMRNode(v, curr)
			//lint:ignore hotalloc AMR cells are immutable by design; linking allocates the replacement cell
			if prev.cell.CompareAndSwap(prevCell, &amrCell{next: n}) {
				esc.Done()
				return true
			}
		}
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvCASFail, v)
		}
		esc.Failed(v)
	}
}

// Remove deletes v from the set and reports whether v was present.
// Logical deletion (marking the cell) is the linearization point;
// physical removal is attempted once and otherwise left to future
// traversals.
func (s *AMR) Remove(v int64) bool {
	esc := s.Begin(s.probes, obs.EvRestartHead, false)
	for {
		prev, prevCell, curr := s.find(v, &esc)
		if curr.val != v {
			esc.Done()
			return false
		}
		currCell := curr.cell.Load()
		if currCell.marked {
			// Deleted by a competitor after find validated it; retry to
			// settle who removed it.
			esc.Failed(v)
			continue
		}
		// An injected failure of the mark-install CAS takes the same
		// restart path a lost race does, without touching the list.
		injected := false
		if fp := s.fps; failpoint.On(fp) {
			injected = fp.Fail(failpoint.SiteHarrisCAS, v)
		}
		//lint:ignore hotalloc AMR cells are immutable by design; the logical delete allocates the marked cell
		marked := &amrCell{next: currCell.next, marked: true}
		if injected || !curr.cell.CompareAndSwap(currCell, marked) {
			if p := s.probes; obs.On(p) {
				p.Inc(obs.EvCASFail, v)
			}
			esc.Failed(v)
			continue
		}
		// Best-effort physical removal; failure delegates the unlink.
		// (A failed attempt forces no retry, so it is not a CAS-failure
		// event — the unlink becomes a future helper's EvHelpedUnlink.)
		// An injected failure here exercises exactly that delegation.
		skipUnlink := false
		if fp := s.fps; failpoint.On(fp) {
			skipUnlink = fp.Fail(failpoint.SiteUnlink, v)
		}
		//lint:ignore hotalloc AMR cells are immutable by design; the physical unlink allocates the replacement cell
		unlinked := !skipUnlink && prev.cell.CompareAndSwap(prevCell, &amrCell{next: currCell.next})
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvLogicalDelete, v)
			if unlinked {
				p.Inc(obs.EvPhysicalUnlink, v)
			}
		}
		esc.Done()
		return true
	}
}

// Len counts the unmarked elements by traversal; exact at quiescence.
func (s *AMR) Len() int {
	n := 0
	curr := s.head.cell.Load().next
	for curr.val != MaxSentinel {
		cell := curr.cell.Load()
		if !cell.marked {
			n++
		}
		curr = cell.next
	}
	return n
}

// Snapshot returns the unmarked elements in ascending order; exact at
// quiescence.
func (s *AMR) Snapshot() []int64 {
	var out []int64
	curr := s.head.cell.Load().next
	for curr.val != MaxSentinel {
		cell := curr.cell.Load()
		if !cell.marked {
			out = append(out, curr.val)
		}
		curr = cell.next
	}
	return out
}
