package schedule

// Schedule reconstruction from captured traces (internal/obs/trace).
//
// A flight-recorder capture gives, for each completed operation, its
// spec, its result, and a handful of globally ordered checkpoints: the
// op-begin/op-end span boundaries, and — when a failpoint pause pinned
// the operation mid-update — the fire/release bracket separating its
// read phase from its write phase. Lift searches the interleavings of
// the sequential step machines consistent with those checkpoints for
// one the given algorithm accepts, turning a real execution into a
// machine-checked Schedule. It is the inverse direction of Accepts:
// Accepts asks "could the algorithm export this schedule?", Lift asks
// "which exportable schedule explains this trace?".

import (
	"fmt"
	"sort"
)

// TraceOp is one completed operation lifted from a capture. The
// position fields are drawn from one global monotone order (trace
// sequence numbers); only their relative order matters.
type TraceOp struct {
	// Spec and Result are the operation and its observed response.
	Spec   OpSpec
	Result bool
	// Begin and End are the op's invocation and return positions.
	Begin, End uint64
	// ReadsBefore, when nonzero, asserts every read-phase step of the
	// operation (traversal reads, node creation) happened before this
	// position — sound when the op was parked at a pre-lock failpoint
	// with no restart afterwards, because by the park it had finished
	// exactly its reads. Zero means unconstrained.
	ReadsBefore uint64
	// WritesAfter, when nonzero, asserts every write-phase step (link,
	// unlink, mark) and the return happened at or after this position
	// — the release of the park. Sound even when the op restarted
	// afterwards (a restart re-reads but cannot have written earlier).
	WritesAfter uint64
}

// checkpoint kinds, in tie-break order (ends and read-closures resolve
// before begins and write-openings at equal positions, which cannot
// happen with distinct trace seqs but keeps the sort total).
const (
	cpEnd = iota
	cpReadsBefore
	cpBegin
	cpWritesAfter
)

type checkpoint struct {
	pos  uint64
	kind int
	op   int
}

// liftBudget bounds the DFS node count; traces worth lifting are a few
// operations, far below it.
const liftBudget = 1 << 22

// Lift reconstructs a Schedule from trace-observed operations: an
// interleaving of the sequential machines that respects every
// checkpoint, reproduces every observed result, and is accepted by
// alg. The machine model (standard vs adjusted) follows alg. It
// returns an error when no such schedule exists within the search
// budget — which, for a trustworthy trace, means the algorithm cannot
// explain the execution.
func Lift(alg Algorithm, initial []int64, ops []TraceOp) (Schedule, error) {
	if len(ops) == 0 {
		return Schedule{}, fmt.Errorf("schedule: Lift needs at least one op")
	}
	if len(ops) > maxOps {
		return Schedule{}, fmt.Errorf("schedule: Lift handles at most %d ops, have %d", maxOps, len(ops))
	}
	adjusted := alg.Adjusted()
	specs := make([]OpSpec, len(ops))
	nodes := 2 + len(initial)
	var cps []checkpoint
	for i, o := range ops {
		specs[i] = o.Spec
		if o.Spec.Kind == OpInsert {
			nodes++
		}
		if o.End <= o.Begin {
			return Schedule{}, fmt.Errorf("schedule: op %d (%s) has End <= Begin", i, o.Spec)
		}
		if o.ReadsBefore > 0 && (o.ReadsBefore <= o.Begin || o.ReadsBefore >= o.End) {
			return Schedule{}, fmt.Errorf("schedule: op %d (%s) has ReadsBefore outside its span", i, o.Spec)
		}
		if o.WritesAfter > 0 && (o.WritesAfter <= o.Begin || o.WritesAfter >= o.End) {
			return Schedule{}, fmt.Errorf("schedule: op %d (%s) has WritesAfter outside its span", i, o.Spec)
		}
		cps = append(cps, checkpoint{o.Begin, cpBegin, i}, checkpoint{o.End, cpEnd, i})
		if o.ReadsBefore > 0 {
			cps = append(cps, checkpoint{o.ReadsBefore, cpReadsBefore, i})
		}
		if o.WritesAfter > 0 {
			cps = append(cps, checkpoint{o.WritesAfter, cpWritesAfter, i})
		}
	}
	if nodes > maxNodes {
		return Schedule{}, fmt.Errorf("schedule: Lift handles at most %d list nodes, the trace needs %d", maxNodes, nodes)
	}
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].pos != cps[j].pos {
			return cps[i].pos < cps[j].pos
		}
		return cps[i].kind < cps[j].kind
	})

	seq, c := newSystem(AlgSeq, initial, specs, adjusted)
	sys, a := newSystem(alg, initial, specs, adjusted)
	l := &lifter{ops: ops, cps: cps, seq: seq, sys: sys}
	if l.dfs(c, sys.start(a), 0) {
		return Schedule{
			Initial:  append([]int64(nil), initial...),
			Ops:      specs,
			Adjusted: adjusted,
			Events:   l.events,
		}, nil
	}
	if l.exhausted {
		return Schedule{}, fmt.Errorf("schedule: Lift search budget exhausted for %d ops", len(ops))
	}
	return Schedule{}, fmt.Errorf("schedule: no %v-accepted schedule is consistent with the trace (%d ops)", alg, len(ops))
}

type lifter struct {
	ops       []TraceOp
	cps       []checkpoint
	seq, sys  system  // the sequential machines and alg's
	events    []Event // the interleaving's exported events so far
	budget    int
	exhausted bool
}

// passed reports whether the checkpoint of the given kind for op i
// lies strictly before the cursor.
func (l *lifter) passed(cursor, kind, op int) bool {
	for _, cp := range l.cps[:cursor] {
		if cp.kind == kind && cp.op == op {
			return true
		}
	}
	return false
}

// readStep classifies the machine's next step as read-phase (traversal
// reads, mark checks, node creation) vs write-phase (link/unlink/mark
// writes and the return).
func readStep(pc uint8) bool {
	switch pc {
	case sReadNext, sCheckMark, sHelpRead, sReadVal, sNewNode, sReadTNext, sCheckLanded:
		return true
	}
	return false
}

// dfs explores from the sequential configuration c, whose exported
// events alg's configurations in set can export: either pass the next
// checkpoint, or step an op the gates allow. It reports whether a
// complete, result-faithful interleaving that alg accepts was found,
// leaving its events in l.events.
func (l *lifter) dfs(c config, set configSet, cursor int) bool {
	l.budget++
	if l.budget > liftBudget {
		l.exhausted = true
		return false
	}
	if cursor == len(l.cps) {
		for i, o := range l.ops {
			if m := l.seq.machine(&c, i); !m.done() || m.result() != o.Result {
				return false
			}
		}
		return l.sys.accepts(&set)
	}

	// Option 1: pass the next checkpoint, when its precondition holds.
	next := l.cps[cursor]
	m := l.seq.machine(&c, next.op)
	ok := true
	switch next.kind {
	case cpEnd:
		// An op's span cannot close before the op has returned.
		ok = m.done() && m.result() == l.ops[next.op].Result
	case cpReadsBefore:
		// Once closed, the op may never read again; closing early on a
		// machine that still needs reads would dead-end, so prune now.
		ok = m.done() || !readStep(m.pc)
	}
	if ok && l.dfs(c, set, cursor+1) {
		return true
	}

	// Option 2: step an op the current gates allow.
	for i, o := range l.ops {
		if c.regs[i].pc == aDone {
			continue
		}
		if !l.passed(cursor, cpBegin, i) || l.passed(cursor, cpEnd, i) {
			continue // may only step inside its own span
		}
		if readStep(c.regs[i].pc) {
			if o.ReadsBefore > 0 && l.passed(cursor, cpReadsBefore, i) {
				continue // read phase is over for this op
			}
		} else {
			if o.WritesAfter > 0 && !l.passed(cursor, cpWritesAfter, i) {
				continue // write phase has not opened yet
			}
		}
		c2 := c
		ev := l.seq.step(&c2, i)
		if m := l.seq.machine(&c2, i); m.done() && m.result() != o.Result {
			continue // wrong result: this interleaving is not the trace's
		}
		if ev == nil {
			if l.dfs(c2, set, cursor) {
				return true
			}
			continue
		}
		after := l.sys.advance(&set, *ev)
		if len(after.list) == 0 {
			continue // alg cannot export this interleaving
		}
		l.events = append(l.events, *ev)
		if l.dfs(c2, after, cursor) {
			return true
		}
		l.events = l.events[:len(l.events)-1]
	}
	return false
}
