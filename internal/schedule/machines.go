package schedule

// Step machines for the sequential code and the six concurrent
// algorithms. Given a schedule σ, "does algorithm A accept σ" means "is
// there an execution of A's machines whose exported events are exactly
// σ".
//
// Machines distinguish *exported* steps (the reads/writes/creations that
// the paper's schedule mapping keeps: those of the operation's last
// traversal, plus effective writes, node creations and successful
// logical deletions) from *internal* steps (lock handling, validation
// reads, deletion-mark metadata in the standard model, and everything
// belonging to attempts that get restarted). Whether the current attempt
// is the exporting one cannot be known in advance, so it is a
// speculation point: the explorer forks on setFinal(true/false) at each
// attempt start, and a machine that discovers its guess was wrong — a
// "non-final" attempt that would have completed, or a "final" attempt
// that fails validation — poisons itself, pruning the branch.
//
// Fidelity notes (documented deviations from the production Go code in
// internal/core):
//
//   - The abstract VBL machine restarts failed attempts from head, not
//     from prev. Restarting from prev is a performance optimization; it
//     makes the exported "last traversal" a composite of attempt
//     prefixes, which complicates the schedule mapping without changing
//     the accepted set (the composite read sequence is itself a legal
//     LL traversal). Head-restart keeps exported attempts literal.
//   - The abstract machines skip the production code's lock-free
//     pre-validation; the search explores all timings anyway.

// Algorithm identifies an implementation for the acceptance search.
type Algorithm uint8

const (
	// AlgSeq is the sequential code itself (standard or adjusted per the
	// schedule); accepting σ means σ is an interleaving of the
	// sequential code, i.e. σ ∈ §.
	AlgSeq Algorithm = iota
	// AlgVBL is the paper's Value-Based List (standard model).
	AlgVBL
	// AlgLazy is the Lazy Linked List (standard model).
	AlgLazy
	// AlgHarris is the Harris-Michael list (adjusted model).
	AlgHarris
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgSeq:
		return "sequential"
	case AlgVBL:
		return "vbl"
	case AlgLazy:
		return "lazy"
	case AlgHarris:
		return "harris-michael"
	case AlgCoarse:
		return "coarse"
	case AlgHOH:
		return "hand-over-hand"
	case AlgOptimistic:
		return "optimistic"
	default:
		return "alg(?)"
	}
}

// Adjusted reports whether the algorithm's reference model is the
// adjusted sequential implementation (marks + delegated unlinking).
func (a Algorithm) Adjusted() bool { return a == AlgHarris }

// Program counters of the algorithm machines, numbered apart from the
// sequential machine's (seq.go) and the extras of the coarse,
// hand-over-hand and optimistic machines, so that a pc means one step
// whichever machine holds it. Not every machine uses every state.
const (
	aStart           = iota // attempt start (finality speculation point)
	aReadNext               // curr <- read(prev.next)
	aCheckMark              // harris: internal mark check of curr
	aHelpRead               // harris: succ <- read(curr.next)
	aHelpCAS                // harris: CAS unlink of marked curr
	aReadVal                // tval <- read(curr.val); branch
	aInsNew                 // create the new node
	aInsLockPrev            // vbl: acquire prev's lock
	aInsValidate            // vbl: validate under prev's lock
	aInsWrite               // link the new node
	aInsCAS                 // harris: CAS link
	aLockPrev               // lazy: acquire prev's lock
	aLockCurr               // lazy: acquire curr's lock
	aValidate               // lazy: post-lock validation
	aAfterValidate          // lazy: presence check under locks
	aRemReadNext            // tnext <- read(curr.next)
	aRemLockPrev            // vbl: lockNextAtValue's acquisition
	aRemValidatePrev        // vbl: value validation under prev's lock
	aRemReread              // vbl: curr <- prev.next under lock
	aRemLockCurr            // vbl: acquire curr's lock
	aRemValidateCurr        // vbl: validate curr.next == tnext
	aRemMarkCAS             // harris: CAS logical deletion
	aRemUnlinkTry           // harris: best-effort physical unlink (internal)
	aRemMark                // vbl/lazy: set deletion mark (internal metadata)
	aRemUnlink              // unlink write
	aContainsCheck          // lazy/harris: internal mark check of landing node
	aReturn
	aDone // every machine's final state, the sequential one's too
	aPoisoned
)

// regs is the register file of one operation's machine. It is a
// comparable value: a configuration (heap plus every op's registers)
// is a map key.
type regs struct {
	tval        int64
	pc          uint8
	final       bool
	finalChosen bool
	retval      bool
	prev, curr  NodeID
	tnext       NodeID
	created     NodeID
	vpred       NodeID // optimistic: the validation re-traversal's cursor
}

// machine is one operation's step machine: the constant identity of the
// operation under an algorithm, plus its registers. Each Step performs
// at most one shared-memory access against the heap and returns the
// exported event, or nil for an internal step.
type machine struct {
	alg      Algorithm
	op       int
	spec     OpSpec
	adjusted bool // the sequential model; set for AlgSeq only, so the coarse lock's seqStep runs the standard code
	freeRun  bool // progress exploration: no exports, no speculation
	regs
}

// newMachine builds the op-th machine of alg.
func newMachine(alg Algorithm, op int, spec OpSpec, adjusted bool) machine {
	m := machine{alg: alg, op: op, spec: spec, adjusted: adjusted && alg == AlgSeq,
		regs: regs{pc: aStart, prev: Head, curr: None, tnext: None, created: None, vpred: None}}
	switch alg {
	case AlgSeq:
		m.pc = sReadNext
	case AlgCoarse, AlgHOH:
		// A single attempt: every step is exported.
		m.final, m.finalChosen = true, true
		m.pc = cAcquireGlobal
		if alg == AlgHOH {
			m.pc = hLockFirst
		}
	case AlgVBL, AlgLazy, AlgHarris, AlgOptimistic:
	default:
		panic("schedule: unknown algorithm")
	}
	return m
}

// step advances the machine by one step.
func (m *machine) step(h *Heap) (Event, bool) {
	switch m.alg {
	case AlgSeq:
		return m.seqStep(h)
	case AlgVBL:
		return m.vblStep(h)
	case AlgLazy:
		return m.lazyStep(h)
	case AlgHarris:
		return m.harrisStep(h)
	case AlgCoarse:
		return m.coarseStep(h)
	case AlgHOH:
		return m.hohStep(h)
	default:
		return m.optimisticStep(h)
	}
}

// enabled reports whether the machine can take a step now: it is false
// once the operation has finished, and while the lock its next step
// acquires is held by another operation.
func (m *machine) enabled(h *Heap) bool {
	switch m.pc {
	case aDone, aPoisoned:
		return false
	case aInsLockPrev, aRemLockPrev, aLockPrev:
		return h.LockedBy(m.prev) < 0
	case aRemLockCurr, aLockCurr, hLockCurr:
		return h.LockedBy(m.curr) < 0
	case cAcquireGlobal, hLockFirst:
		return h.LockedBy(Head) < 0
	default:
		return true
	}
}

func (m *machine) done() bool     { return m.pc == aDone }
func (m *machine) result() bool   { return m.retval }
func (m *machine) poisoned() bool { return m.pc == aPoisoned }

// restarts reports whether the operation can fail validation and
// restart. Only the optimistic list's contains validates; every other
// contains is always its own final attempt.
func (m *machine) restarts() bool {
	return m.spec.Kind != OpContains || m.alg == AlgOptimistic
}

func (m *machine) needsFinalityChoice() bool {
	return !m.freeRun && m.pc == aStart && !m.finalChosen && m.restarts()
}

func (m *machine) setFinal(final bool) {
	m.final = final
	m.finalChosen = true
}

// setFreeRun switches the machine to the progress exploration's mode:
// attempts behave as the real algorithm's do and nothing is exported.
func (m *machine) setFreeRun() {
	m.freeRun = true
	m.final = false
	m.finalChosen = true
}

// restart begins a new attempt (the previous one failed validation).
// A final attempt must not fail — poison instead.
func (m *machine) restart() {
	if !m.freeRun && m.final {
		m.pc = aPoisoned
		return
	}
	m.pc = aStart
	m.finalChosen = false
	m.prev = Head
	m.curr = None
	if !m.freeRun {
		m.created = None // free runs keep their node for reuse
	}
}

// complete moves to the return step; a non-final attempt must not
// complete — poison instead.
func (m *machine) complete(result bool) {
	if !m.freeRun && !m.final && m.restarts() {
		m.pc = aPoisoned
		return
	}
	m.retval = result
	m.pc = aReturn
}

// export returns e and whether it is exported: only final attempts
// emit events.
func (m *machine) export(e Event) (Event, bool) {
	if m.freeRun || (!m.final && m.restarts()) {
		return Event{}, false
	}
	return e, true
}

// beginTraversal is the common aStart handling.
func (m *machine) beginTraversal() {
	if !m.freeRun && !m.restarts() {
		m.final = true
		m.finalChosen = true
	}
	m.prev = Head
	m.pc = aReadNext
}

// traversalReadNext performs curr <- read(prev.next).
func (m *machine) traversalReadNext(h *Heap, next uint8) (Event, bool) {
	m.curr = h.Next(m.prev)
	m.pc = next
	return m.export(Event{Op: m.op, Kind: EvReadNext, Node: m.prev, Target: m.curr})
}

// unlockBoth releases the prev/curr window (lazy, optimistic).
func (m *machine) unlockBoth(h *Heap) {
	h.Unlock(m.curr, m.op)
	h.Unlock(m.prev, m.op)
}

// emitReturn emits the response event.
func (m *machine) emitReturn() (Event, bool) {
	m.pc = aDone
	return Event{Op: m.op, Kind: EvReturn, Result: m.retval}, true
}
