package schedule

// vblStep steps the abstract VBL operation (Algorithm 2 of the paper)
// over the schedule heap: wait-free traversal, value-aware try-lock with
// validation under the lock, logical deletion (internal metadata in the
// standard model) before physical unlinking.
func (m *machine) vblStep(h *Heap) *Event {
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
		switch m.spec.Kind {
		case OpContains:
			// VBL contains ignores deletion marks entirely.
			m.retval = m.tval == v
			m.pc = aReturn
		case OpInsert:
			if m.tval == v {
				m.complete(false) // no metadata touched — Figure 2's point
			} else {
				m.pc = aInsNew
			}
		case OpRemove:
			if m.tval != v {
				m.complete(false)
			} else {
				m.pc = aRemReadNext
			}
		}
		return ev

	// --- insert path (Algorithm 2, lines 26-32) ---
	case aInsNew:
		if m.freeRun {
			// Reuse one node across attempts: a fresh allocation per
			// retry would make every state distinct and the progress
			// exploration unbounded. Abandoned nodes are unobservable,
			// so reuse is behaviour-preserving.
			if m.created == None {
				m.created = h.NewNode(v, m.curr)
			} else {
				h.SetNext(m.created, m.curr)
			}
			m.pc = aInsLockPrev
			return nil
		}
		if m.final {
			m.created = h.NewNode(v, m.curr)
			m.pc = aInsLockPrev
			return &Event{Op: m.op, Kind: EvNewNode, Node: m.created, Val: v, Target: m.curr}
		}
		// Non-final attempts do not allocate an exported node: theirs
		// would never be linked.
		m.created = None
		m.pc = aInsLockPrev
		return nil

	case aInsLockPrev: // lockNextAt: take the CAS lock...
		if !h.TryLock(m.prev, m.op) {
			panic("schedule: vbl lock step while not enabled")
		}
		m.pc = aInsValidate
		return nil

	case aInsValidate: // ...then validate under it.
		if h.Deleted(m.prev) || h.Next(m.prev) != m.curr {
			h.Unlock(m.prev, m.op)
			m.restart()
			return nil
		}
		if !m.freeRun && !m.final {
			// Validation succeeded: this attempt completes, so the
			// non-final guess was wrong.
			h.Unlock(m.prev, m.op)
			m.pc = aPoisoned
			return nil
		}
		m.pc = aInsWrite
		return nil

	case aInsWrite:
		h.SetNext(m.prev, m.created)
		ev := Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.created}
		h.Unlock(m.prev, m.op)
		m.retval = true
		m.pc = aReturn
		return &ev

	// --- remove path (Algorithm 2, lines 38-48) ---
	case aRemReadNext: // line 38: next <- curr.next
		m.tnext = h.Next(m.curr)
		m.pc = aRemLockPrev
		return m.export(Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext})

	case aRemLockPrev: // lockNextAtValue: take the lock...
		if !h.TryLock(m.prev, m.op) {
			panic("schedule: vbl lock step while not enabled")
		}
		m.pc = aRemValidatePrev
		return nil

	case aRemValidatePrev: // ...validate BY VALUE under it (line 39).
		if h.Deleted(m.prev) || h.Val(h.Next(m.prev)) != v {
			h.Unlock(m.prev, m.op)
			m.restart()
			return nil
		}
		m.pc = aRemReread
		return nil

	case aRemReread: // line 40: curr <- prev.next (fresh read under lock)
		m.curr = h.Next(m.prev)
		m.pc = aRemLockCurr
		return nil

	case aRemLockCurr:
		if !h.TryLock(m.curr, m.op) {
			panic("schedule: vbl lock step while not enabled")
		}
		m.pc = aRemValidateCurr
		return nil

	case aRemValidateCurr: // line 41: curr.next must still be tnext.
		if h.Deleted(m.curr) || h.Next(m.curr) != m.tnext {
			h.Unlock(m.curr, m.op)
			h.Unlock(m.prev, m.op)
			m.restart()
			return nil
		}
		if !m.freeRun && !m.final {
			h.Unlock(m.curr, m.op)
			h.Unlock(m.prev, m.op)
			m.pc = aPoisoned
			return nil
		}
		m.pc = aRemMark
		return nil

	case aRemMark: // line 44 — metadata, internal in the standard model
		h.SetDeleted(m.curr)
		m.pc = aRemUnlink
		return nil

	case aRemUnlink: // line 45
		h.SetNext(m.prev, m.tnext)
		ev := Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext}
		h.Unlock(m.curr, m.op)
		h.Unlock(m.prev, m.op)
		m.retval = true
		m.pc = aReturn
		return &ev

	case aReturn:
		return m.emitReturn()

	default:
		panic("schedule: vbl machine stepped in invalid state")
	}
}
