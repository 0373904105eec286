package schedule

// lazyStep steps the abstract Lazy Linked List operation: wait-free
// traversal, then — for updates, whether or not they will modify the
// list — lock prev AND curr, validate after locking (both unmarked,
// still adjacent), and only then look at the value. This post-locking
// validation and the locks-taken-by-read-only-updates are exactly what
// Figure 2 exploits.
func (m *machine) lazyStep(h *Heap) (Event, bool) {
	v := m.spec.Arg
	switch m.pc {
	case aStart:
		m.beginTraversal()
		return Event{}, false

	case aReadNext:
		return m.traversalReadNext(h, aReadVal)

	case aReadVal:
		m.tval = h.Val(m.curr)
		ev, ok := m.export(Event{Op: m.op, Kind: EvReadVal, Node: m.curr, Val: m.tval})
		if m.tval < v {
			m.prev = m.curr
			m.pc = aReadNext
			return ev, ok
		}
		if m.spec.Kind == OpContains {
			m.pc = aContainsCheck
		} else {
			// Updates lock the window before examining it further.
			m.pc = aLockPrev
		}
		return ev, ok

	case aContainsCheck: // internal read of the landing node's mark
		m.retval = m.tval == v && !h.Deleted(m.curr)
		m.pc = aReturn
		return Event{}, false

	case aLockPrev:
		if !h.TryLock(m.prev, m.op) {
			panic("schedule: lazy lock step while not enabled")
		}
		m.pc = aLockCurr
		return Event{}, false

	case aLockCurr:
		if !h.TryLock(m.curr, m.op) {
			panic("schedule: lazy lock step while not enabled")
		}
		m.pc = aValidate
		return Event{}, false

	case aValidate: // post-locking validation
		if h.Deleted(m.prev) || h.Deleted(m.curr) || h.Next(m.prev) != m.curr {
			m.unlockBoth(h)
			m.restart()
			return Event{}, false
		}
		m.pc = aAfterValidate
		return Event{}, false

	case aAfterValidate: // presence decision, still under both locks
		switch m.spec.Kind {
		case OpInsert:
			if m.tval == v {
				m.unlockBoth(h)
				m.complete(false)
				return Event{}, false
			}
			m.pc = aInsNew
		case OpRemove:
			if m.tval != v {
				m.unlockBoth(h)
				m.complete(false)
				return Event{}, false
			}
			m.pc = aRemReadNext
		}
		return Event{}, false

	case aInsNew: // node created under the locks (Heller et al.)
		if !m.freeRun && !m.final {
			// This attempt validated successfully and will complete: the
			// non-final guess was wrong.
			m.unlockBoth(h)
			m.pc = aPoisoned
			return Event{}, false
		}
		if m.freeRun && m.created != None {
			// Reuse one node across attempts (see the VBL machine).
			h.SetNext(m.created, m.curr)
			m.pc = aInsWrite
			return Event{}, false
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
		return ev, true

	case aRemReadNext:
		if !m.freeRun && !m.final {
			m.unlockBoth(h)
			m.pc = aPoisoned
			return Event{}, false
		}
		m.tnext = h.Next(m.curr)
		m.pc = aRemMark
		return Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext}, true

	case aRemMark: // logical deletion — metadata, internal
		h.SetDeleted(m.curr)
		m.pc = aRemUnlink
		return Event{}, false

	case aRemUnlink:
		h.SetNext(m.prev, m.tnext)
		ev := Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext}
		m.unlockBoth(h)
		m.retval = true
		m.pc = aReturn
		return ev, true

	case aReturn:
		return m.emitReturn()

	default:
		panic("schedule: lazy machine stepped in invalid state")
	}
}
