package schedule

// Step machines for the sequential implementation LL (Algorithm 1) and
// for the adjusted sequential implementation of §2.3 (removals are
// logical marks; traversing update operations physically unlink marked
// nodes). Running interleavings of these machines over a shared abstract
// heap generates exactly the schedule space § of the paper.

// Sequential machine program counters, numbered after the algorithm machines'
// (machines.go); a completed sequential op is in aDone too.
const (
	sReadNext    = aPoisoned + 1 + iota // curr <- read(prev.next)
	sCheckMark                          // adjusted updates: internal read of curr's mark
	sHelpRead                           // helping: tnext <- read(curr.next)
	sHelpWrite                          // helping: write(prev.next, tnext)
	sReadVal                            // tval <- read(curr.val), then branch
	sNewNode                            // insert path: X <- new-node(v, curr)
	sWriteLink                          // insert path: write(prev.next, X)
	sReadTNext                          // remove path: tnext <- read(curr.next)
	sUnlink                             // standard remove: write(prev.next, tnext)
	sMark                               // adjusted remove: mark(curr)
	sCheckLanded                        // adjusted contains: internal mark read of landing node
	sReturn                             // emit response
)

// helps reports whether this operation participates in physical removal
// of marked nodes: adjusted-model updates do, contains never does.
func (m *machine) helps() bool {
	return m.adjusted && m.spec.Kind != OpContains
}

// seqStep executes one step of an LL operation (standard or adjusted):
// the reference semantics that defines schedules.
func (m *machine) seqStep(h *Heap) *Event {
	v := m.spec.Arg
	switch m.pc {
	case sReadNext:
		m.curr = h.Next(m.prev)
		if m.helps() {
			m.pc = sCheckMark
		} else {
			m.pc = sReadVal
		}
		return &Event{Op: m.op, Kind: EvReadNext, Node: m.prev, Target: m.curr}

	case sCheckMark: // internal
		if h.Deleted(m.curr) {
			m.pc = sHelpRead
		} else {
			m.pc = sReadVal
		}
		return nil

	case sHelpRead:
		m.tnext = h.Next(m.curr)
		m.pc = sHelpWrite
		return &Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext}

	case sHelpWrite:
		h.SetNext(m.prev, m.tnext)
		ev := &Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext}
		m.curr = m.tnext
		m.pc = sCheckMark
		return ev

	case sReadVal:
		m.tval = h.Val(m.curr)
		ev := &Event{Op: m.op, Kind: EvReadVal, Node: m.curr, Val: m.tval}
		if m.tval < v {
			m.prev = m.curr
			m.pc = sReadNext
			return ev
		}
		switch m.spec.Kind {
		case OpInsert:
			if m.tval != v {
				m.pc = sNewNode
			} else {
				m.retval = false
				m.pc = sReturn
			}
		case OpRemove:
			if m.tval == v {
				m.pc = sReadTNext
			} else {
				m.retval = false
				m.pc = sReturn
			}
		case OpContains:
			if m.adjusted {
				m.pc = sCheckLanded
			} else {
				m.retval = m.tval == v
				m.pc = sReturn
			}
		}
		return ev

	case sNewNode:
		m.created = h.NewNode(v, m.curr)
		m.pc = sWriteLink
		return &Event{Op: m.op, Kind: EvNewNode, Node: m.created, Val: v, Target: m.curr}

	case sWriteLink:
		h.SetNext(m.prev, m.created)
		m.retval = true
		m.pc = sReturn
		return &Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.created}

	case sReadTNext:
		m.tnext = h.Next(m.curr)
		if m.adjusted {
			m.pc = sMark
		} else {
			m.pc = sUnlink
		}
		return &Event{Op: m.op, Kind: EvReadNext, Node: m.curr, Target: m.tnext}

	case sUnlink:
		h.SetNext(m.prev, m.tnext)
		m.retval = true
		m.pc = sReturn
		return &Event{Op: m.op, Kind: EvWriteNext, Node: m.prev, Target: m.tnext}

	case sMark:
		h.SetDeleted(m.curr)
		m.retval = true
		m.pc = sReturn
		return &Event{Op: m.op, Kind: EvMark, Node: m.curr}

	case sCheckLanded: // internal
		m.retval = m.tval == m.spec.Arg && !h.Deleted(m.curr)
		m.pc = sReturn
		return nil

	case sReturn:
		return m.emitReturn()

	default:
		panic("schedule: step on completed machine")
	}
}
