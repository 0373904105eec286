package schedule

// harrisStep steps the abstract Harris-Michael operation, analyzed (as
// in §2.3) against the *adjusted* sequential implementation: removals
// are logical marks, and traversing update operations physically unlink
// the marked nodes they encounter. All pointer updates are CAS-based:
// a failed CAS on the traversal path restarts the operation from head —
// the restart that makes the algorithm reject Figure 3.
//
// Schedule mapping (per the paper): exported events are the reads and
// writes of the operation's LAST traversal, node creations by inserts,
// and successful logical deletions by removes. A remove's best-effort
// physical unlink and any helping writes of abandoned traversals mutate
// the heap silently.
func (m *machine) harrisStep(h *Heap) (Event, bool) {
	v := m.spec.Arg
	switch m.pc {
	case aStart:
		m.beginTraversal()
		return Event{}, false

	case aReadNext:
		// contains does not help; updates check the mark next.
		next := uint8(aCheckMark)
		if m.spec.Kind == OpContains {
			next = aReadVal
		}
		return m.traversalReadNext(h, next)

	case aCheckMark: // internal read of curr's mark
		if h.Deleted(m.curr) {
			m.pc = aHelpRead
		} else {
			m.pc = aReadVal
		}
		return Event{}, false

	case aHelpRead: // succ <- read(curr.next), part of the traversal
		m.tnext = h.Next(m.curr)
		m.pc = aHelpCAS
		return m.export(Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext})

	case aHelpCAS:
		// CAS(prev.next: curr -> succ); prev must also be unmarked (the
		// expected cell carries an unmarked flag).
		if h.Deleted(m.prev) || h.Next(m.prev) != m.curr {
			m.restart() // failed helping CAS restarts the operation
			return Event{}, false
		}
		h.SetNext(m.prev, m.tnext)
		ev, ok := m.export(Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext})
		m.curr = m.tnext
		m.pc = aCheckMark
		return ev, ok

	case aReadVal:
		m.tval = h.Val(m.curr)
		ev, ok := m.export(Event{Op: m.op, Kind: EvReadVal, Node: m.curr, Val: m.tval})
		if m.tval < v {
			m.prev = m.curr
			m.pc = aReadNext
			return ev, ok
		}
		switch m.spec.Kind {
		case OpContains:
			m.pc = aContainsCheck
		case OpInsert:
			if m.tval == v {
				m.complete(false)
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
		return ev, ok

	case aContainsCheck: // wait-free contains: check landing node's mark
		m.retval = m.tval == v && !h.Deleted(m.curr)
		m.pc = aReturn
		return Event{}, false

	// --- insert path ---
	case aInsNew:
		if m.freeRun {
			// Reuse one node across attempts (see the VBL machine).
			if m.created == None {
				m.created = h.NewNode(v, m.curr)
			} else {
				h.SetNext(m.created, m.curr)
			}
			m.pc = aInsCAS
			return Event{}, false
		}
		if m.final {
			m.created = h.NewNode(v, m.curr)
			m.pc = aInsCAS
			return Event{Op: m.op, Kind: EvNewNode, Node: m.created, Val: v, Target: m.curr}, true
		}
		m.created = None
		m.pc = aInsCAS
		return Event{}, false

	case aInsCAS:
		// CAS(prev.next: curr -> new), prev unmarked expected.
		if h.Deleted(m.prev) || h.Next(m.prev) != m.curr {
			m.restart()
			return Event{}, false
		}
		if !m.freeRun && !m.final {
			// The CAS would have succeeded — wrong non-final guess.
			m.pc = aPoisoned
			return Event{}, false
		}
		h.SetNext(m.prev, m.created)
		ev := Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.created}
		m.retval = true
		m.pc = aReturn
		return ev, true

	// --- remove path ---
	case aRemReadNext: // succ <- read(curr.next)
		m.tnext = h.Next(m.curr)
		m.pc = aRemMarkCAS
		return m.export(Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext})

	case aRemMarkCAS:
		// Logical deletion: CAS(curr.(next,mark): (succ,false) -> (succ,true)).
		if h.Deleted(m.curr) || h.Next(m.curr) != m.tnext {
			m.restart()
			return Event{}, false
		}
		if !m.freeRun && !m.final {
			m.pc = aPoisoned
			return Event{}, false
		}
		h.SetDeleted(m.curr)
		m.pc = aRemUnlinkTry
		// Successful logical deletions are schedule events.
		return Event{Op: m.op, Kind: EvMark, Node: m.curr}, true

	case aRemUnlinkTry:
		// Best-effort physical unlink: CAS(prev.next: curr -> succ).
		// Success or failure, it is not part of the schedule — the
		// adjusted model delegates physical removal to traversals.
		if !h.Deleted(m.prev) && h.Next(m.prev) == m.curr {
			h.SetNext(m.prev, m.tnext)
		}
		m.retval = true
		m.pc = aReturn
		return Event{}, false

	case aReturn:
		return m.emitReturn()

	default:
		panic("schedule: harris machine stepped in invalid state")
	}
}
