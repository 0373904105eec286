package schedule

// Acceptance machines for the two pedagogical baselines, extending the
// paper's analysis downward: the coarse-grained list (one global lock)
// and the hand-over-hand locking list. Neither ever restarts — every
// operation is its own final attempt — so all their steps are exported;
// their (lack of) concurrency shows up purely through lock-induced
// scheduling constraints:
//
//   - coarse: the global lock is modelled as the head node's lock held
//     for the whole operation, so accepted schedules are exactly the
//     block-sequential ones;
//   - hand-over-hand: the traversal holds a sliding pair of node locks,
//     admitting pipelined traversals but nothing out of order.
//
// Together with Lazy, Harris-Michael and VBL this yields the
// concurrency hierarchy reported by cmd/schedcheck -enumerate:
// coarse < hand-over-hand < lazy < vbl = all correct schedules.

// Additional algorithm identifiers (see Algorithm in machines.go).
const (
	// AlgCoarse is the global-mutex list (standard model).
	AlgCoarse Algorithm = 100 + iota
	// AlgHOH is the hand-over-hand locking list (standard model).
	AlgHOH
)

// Extra program counters for the coarse/hoh machines.
const (
	cAcquireGlobal = sReturn + 1 + iota // coarse: take the global lock
	hLockFirst                          // hoh: lock the starting node
	hLockCurr                           // hoh: lock curr before examining it
	hAdvanceUnlock                      // hoh: release prev after moving on
)

// coarseStep runs the sequential operation under one global lock (the
// head node's lock stands in for the global mutex): the lock step, then
// the sequential machine's steps, releasing the lock with the return.
func (m *machine) coarseStep(h *Heap) (Event, bool) {
	if m.pc == cAcquireGlobal {
		if !h.TryLock(Head, m.op) {
			panic("schedule: coarse lock step while not enabled")
		}
		m.pc = sReadNext
		return Event{}, false
	}
	ev, ok := m.seqStep(h)
	if m.done() {
		h.Unlock(Head, m.op)
	}
	return ev, ok
}

// hohStep steps the hand-over-hand locking list: the traversal carries
// a sliding window of two node locks down the list.
func (m *machine) hohStep(h *Heap) (Event, bool) {
	v := m.spec.Arg
	switch m.pc {
	case hLockFirst:
		if !h.TryLock(Head, m.op) {
			panic("schedule: hoh lock step while not enabled")
		}
		m.prev = Head
		m.pc = aReadNext
		return Event{}, false

	case aReadNext: // curr <- read(prev.next), prev's lock held
		m.curr = h.Next(m.prev)
		m.pc = hLockCurr
		return Event{Op: m.op, Kind: EvReadNext, Node: m.prev, Target: m.curr}, true

	case hLockCurr:
		if !h.TryLock(m.curr, m.op) {
			panic("schedule: hoh lock step while not enabled")
		}
		m.pc = aReadVal
		return Event{}, false

	case aReadVal:
		m.tval = h.Val(m.curr)
		ev := Event{Op: m.op, Kind: EvReadVal, Node: m.curr, Val: m.tval}
		if m.tval < v {
			m.pc = hAdvanceUnlock
			return ev, true
		}
		switch m.spec.Kind {
		case OpContains:
			m.retval = m.tval == v
			m.pc = aReturn
		case OpInsert:
			if m.tval == v {
				m.retval = false
				m.pc = aReturn
			} else {
				m.pc = aInsNew
			}
		case OpRemove:
			if m.tval != v {
				m.retval = false
				m.pc = aReturn
			} else {
				m.pc = aRemReadNext
			}
		}
		return ev, true

	case hAdvanceUnlock: // release prev, slide the window
		h.Unlock(m.prev, m.op)
		m.prev = m.curr
		m.pc = aReadNext
		return Event{}, false

	case aInsNew:
		m.created = h.NewNode(v, m.curr)
		m.pc = aInsWrite
		return Event{Op: m.op, Kind: EvNewNode, Node: m.created, Val: v, Target: m.curr}, true

	case aInsWrite:
		h.SetNext(m.prev, m.created)
		m.retval = true
		m.pc = aReturn
		return Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.created}, true

	case aRemReadNext:
		m.tnext = h.Next(m.curr)
		m.pc = aRemUnlink
		return Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext}, true

	case aRemUnlink:
		h.SetNext(m.prev, m.tnext)
		m.retval = true
		m.pc = aReturn
		return Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext}, true

	case aReturn:
		h.Unlock(m.curr, m.op)
		h.Unlock(m.prev, m.op)
		return m.emitReturn()

	default:
		panic("schedule: hoh machine stepped in invalid state")
	}
}
