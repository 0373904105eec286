package schedule

// The optimistic machine is the Optimistic locking list (Herlihy & Shavit
// ch. 9.6) in the acceptance framework, completing the optimistic-vs-
// pessimistic spectrum that motivated the concurrency-optimality
// programme: traversal is wait-free, but EVERY operation — contains
// included — locks its window and then validates it by re-traversing
// the list from head (internal reads, one per step). With no deletion
// marks, a failed validation restarts the whole operation.
//
// Its accepted-schedule set sits strictly between hand-over-hand and
// Lazy: traversals interleave freely, but no operation can complete
// inside another operation's lock window, and the double traversal
// (validation) must observe a reachable window.

// Additional program counters.
const (
	oValidateStart = hAdvanceUnlock + 1 + iota // begin the validation re-traversal
	oValidateStep                              // one internal read of the re-traversal
	oDecide                                    // validated: branch on the op kind
)

// AlgOptimistic identifies the optimistic list (standard model).
const AlgOptimistic Algorithm = 200

// optimisticStep steps the optimistic list's operation. Its contains
// also restarts on failed validation, so unlike the other machines'
// it takes part in finality speculation (see machine.restarts).
func (m *machine) optimisticStep(h *Heap) *Event {
	v := m.spec.Arg
	switch m.pc {
	case aStart:
		m.beginTraversal()
		return nil

	case aReadNext:
		return m.traversalReadNext(h, aReadVal)

	case aReadVal:
		m.tval = h.Val(m.curr)
		ev := m.export(Event{Op: m.op, Kind: EvReadVal, Node: m.curr, Val: m.tval})
		if m.tval < v {
			m.prev = m.curr
			m.pc = aReadNext
			return ev
		}
		m.pc = aLockPrev
		return ev

	case aLockPrev:
		if !h.TryLock(m.prev, m.op) {
			panic("schedule: optimistic lock step while not enabled")
		}
		m.pc = aLockCurr
		return nil

	case aLockCurr:
		if !h.TryLock(m.curr, m.op) {
			panic("schedule: optimistic lock step while not enabled")
		}
		m.pc = oValidateStart
		return nil

	case oValidateStart:
		m.vpred = Head
		m.pc = oValidateStep
		return nil

	case oValidateStep: // one internal read of the re-traversal
		if m.vpred == m.prev {
			// Reached prev: the window is valid iff still adjacent.
			if h.Next(m.prev) == m.curr {
				m.pc = oDecide
			} else {
				m.unlockBoth(h)
				m.restart()
			}
			return nil
		}
		if h.Val(m.vpred) > h.Val(m.prev) {
			// Walked past prev's value: prev is no longer reachable.
			m.unlockBoth(h)
			m.restart()
			return nil
		}
		m.vpred = h.Next(m.vpred)
		return nil

	case oDecide:
		switch m.spec.Kind {
		case OpContains:
			m.unlockBoth(h)
			m.complete(m.tval == v)
		case OpInsert:
			if m.tval == v {
				m.unlockBoth(h)
				m.complete(false)
			} else {
				m.pc = aInsNew
			}
		case OpRemove:
			if m.tval != v {
				m.unlockBoth(h)
				m.complete(false)
			} else {
				m.pc = aRemReadNext
			}
		}
		return nil

	case aInsNew:
		if !m.freeRun && !m.final {
			m.unlockBoth(h)
			m.pc = aPoisoned
			return nil
		}
		if m.freeRun && m.created != None {
			// Reuse one node across attempts (see the VBL machine).
			h.SetNext(m.created, m.curr)
			m.pc = aInsWrite
			return nil
		}
		m.created = h.NewNode(v, m.curr)
		m.pc = aInsWrite
		return m.export(Event{Op: m.op, Kind: EvNewNode, Node: m.created, Val: v, Target: m.curr})

	case aInsWrite:
		h.SetNext(m.prev, m.created)
		ev := Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.created}
		m.unlockBoth(h)
		m.retval = true
		m.pc = aReturn
		return &ev

	case aRemReadNext:
		if !m.freeRun && !m.final {
			m.unlockBoth(h)
			m.pc = aPoisoned
			return nil
		}
		m.tnext = h.Next(m.curr)
		m.pc = aRemUnlink
		return &Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext}

	case aRemUnlink:
		h.SetNext(m.prev, m.tnext)
		ev := Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext}
		m.unlockBoth(h)
		m.retval = true
		m.pc = aReturn
		return &ev

	case aReturn:
		return m.emitReturn()

	default:
		panic("schedule: optimistic machine stepped in invalid state")
	}
}
