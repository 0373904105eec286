package schedule

import "fmt"

// Run executes the sequential machines under a fixed scheduler order and
// returns the exported schedule. order lists, step by step, which
// operation advances (internal steps count as steps). It errors if an
// entry names a completed operation or if the order does not run every
// operation to completion — schedules are complete by definition here.
func Run(initial []int64, ops []OpSpec, adjusted bool, order []int) (Schedule, error) {
	sys, c := newSystem(AlgSeq, initial, ops, adjusted)
	s := Schedule{Initial: append([]int64(nil), initial...), Ops: append([]OpSpec(nil), ops...), Adjusted: adjusted}
	for step, i := range order {
		if i < 0 || i >= len(ops) {
			return Schedule{}, fmt.Errorf("schedule: order step %d names op %d, have %d ops", step, i, len(ops))
		}
		if c.regs[i].pc == aDone {
			return Schedule{}, fmt.Errorf("schedule: order step %d advances completed op %d", step, i)
		}
		if ev, exported := sys.step(&c, i); exported {
			s.Events = append(s.Events, ev)
		}
	}
	for i := range ops {
		if c.regs[i].pc != aDone {
			return Schedule{}, fmt.Errorf("schedule: op %d (%s) incomplete after the order", i, ops[i])
		}
	}
	return s, nil
}

// RunToCompletion runs prefix, then each remaining operation to
// completion in index order; it is a convenience for building
// schedules where only a prefix order matters.
func RunToCompletion(initial []int64, ops []OpSpec, adjusted bool, prefix []int) (Schedule, error) {
	sys, c := newSystem(AlgSeq, initial, ops, adjusted)
	full := append([]int(nil), prefix...)
	for step, i := range prefix {
		if i < 0 || i >= len(ops) {
			return Schedule{}, fmt.Errorf("schedule: prefix step %d names op %d, have %d ops", step, i, len(ops))
		}
		if c.regs[i].pc == aDone {
			return Schedule{}, fmt.Errorf("schedule: prefix step %d advances completed op %d", step, i)
		}
		sys.step(&c, i)
	}
	for i := range ops {
		for c.regs[i].pc != aDone {
			sys.step(&c, i)
			full = append(full, i)
		}
	}
	return Run(initial, ops, adjusted, full)
}

// GenerateAll enumerates every schedule in § obtainable by interleaving
// the sequential machines of ops over the initial list — the schedule
// space the paper quantifies over — as the explorer's leaves, each
// schedule once. limit caps the number of schedules gathered (0 means
// no cap); the walk stops once reached.
func GenerateAll(initial []int64, ops []OpSpec, adjusted bool, limit int) []Schedule {
	var out []Schedule
	explore(initial, ops, adjusted, nil, func(s Schedule, _ []bool) bool {
		out = append(out, s)
		return limit <= 0 || len(out) < limit
	})
	return out
}
