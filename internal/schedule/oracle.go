package schedule

import "fmt"

// Correct implements Definition 1: a schedule is correct iff
//
//  1. it is a schedule at all, i.e. an interleaving of the (standard or
//     adjusted) sequential code — checked by acceptance of the
//     sequential "algorithm";
//  2. it is locally serializable w.r.t. LL: each operation's steps are
//     steps the sequential code could take against SOME sorted list.
//     Given (1), which pins per-operation control flow, this reduces to
//     the values each operation observes being strictly ascending: a
//     sorted list showing exactly those nodes in that order then
//     witnesses a sequential schedule S with σ|π = S|π;
//  3. every extension σ̄(v) is linearizable: there is a permutation of
//     the operations respecting σ's real-time order under which set
//     semantics produce every recorded result AND the final abstract
//     set equals the membership reachable from head after replaying σ —
//     the reachable membership is what any post-hoc contains(v) would
//     answer from, so final-state agreement is exactly "σ̄(v) is
//     linearizable for all v".
//
// It returns a human-readable reason for the first failed condition.
func Correct(s Schedule) (bool, string) {
	results, ok := s.Results()
	if !ok {
		return false, "malformed schedule: each op needs exactly one return event"
	}
	if !Accepts(AlgSeq, s) {
		return false, "not an interleaving of the sequential code (σ ∉ §)"
	}
	return serializableAndLinearizable(s, results)
}

// serializableAndLinearizable checks conditions (2) and (3), all that
// is left to judge of a schedule known to be in § — a leaf of the
// explorer.
func serializableAndLinearizable(s Schedule, results []bool) (bool, string) {
	if op, ok := locallySerializable(s); !ok {
		return false, fmt.Sprintf("op %d is not locally serializable (observed values not ascending)", op)
	}
	if !extensionLinearizable(s, results) {
		return false, "no linearization matches the results and the final reachable state"
	}
	return true, ""
}

// locallySerializable checks condition (2); it returns the offending op
// on failure.
func locallySerializable(s Schedule) (int, bool) {
	last := make(map[int]int64)
	seenAny := make(map[int]bool)
	for _, e := range s.Events {
		if e.Kind != EvReadVal {
			continue
		}
		if seenAny[e.Op] && e.Val <= last[e.Op] {
			return e.Op, false
		}
		last[e.Op] = e.Val
		seenAny[e.Op] = true
	}
	return 0, true
}

// Replay applies the schedule's effectful events to a fresh heap and
// returns it. Read events are ignored (their recorded results were
// already validated by §-membership).
func Replay(s Schedule) *Heap {
	h := NewHeap(s.Initial)
	for _, e := range s.Events {
		switch e.Kind {
		case EvNewNode:
			id := h.NewNode(e.Val, e.Target)
			if id != e.Node {
				panic(fmt.Sprintf("schedule: replay allocated X%d where schedule says X%d", id, e.Node))
			}
		case EvWriteNext:
			h.SetNext(e.Node, e.Target)
		case EvMark:
			h.SetDeleted(e.Node)
		}
	}
	return h
}

// FinalMembers returns the set contents after the schedule: the values
// reachable from head (excluding logically deleted nodes in the
// adjusted model).
func FinalMembers(s Schedule) map[int64]bool {
	return Replay(s).Members(s.Adjusted)
}

// extensionLinearizable checks condition (3) by searching permutations.
func extensionLinearizable(s Schedule, results []bool) bool {
	n := len(s.Ops)
	// Real-time precedence between ops: a precedes b iff a's return
	// event occurs before b's first event.
	firstEvent := make([]int, n)
	returnEvent := make([]int, n)
	for i := range firstEvent {
		firstEvent[i] = -1
	}
	for idx, e := range s.Events {
		if firstEvent[e.Op] < 0 {
			firstEvent[e.Op] = idx
		}
		if e.Kind == EvReturn {
			returnEvent[e.Op] = idx
		}
	}
	precedes := func(a, b int) bool { return returnEvent[a] < firstEvent[b] }

	want := FinalMembers(s)

	initial := map[int64]bool{}
	for _, v := range s.Initial {
		initial[v] = true
	}

	used := make([]bool, n)
	state := map[int64]bool{}
	for k, v := range initial {
		state[k] = v
	}

	var try func(done int) bool
	try = func(done int) bool {
		if done == n {
			if len(state) != len(want) {
				return false
			}
			for k := range want {
				if !state[k] {
					return false
				}
			}
			return true
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// i may go next only if every unused op that precedes it is
			// already placed — i.e. no unused j with j→i.
			ok := true
			for j := 0; j < n; j++ {
				if j != i && !used[j] && precedes(j, i) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Apply set semantics and check the recorded result.
			op := s.Ops[i]
			cur := state[op.Arg]
			var legal bool
			var after bool
			switch op.Kind {
			case OpInsert:
				legal = results[i] == !cur
				after = true
			case OpRemove:
				legal = results[i] == cur
				after = false
			case OpContains:
				legal = results[i] == cur
				after = cur
			}
			if !legal {
				continue
			}
			used[i] = true
			if after {
				state[op.Arg] = true
			} else {
				delete(state, op.Arg)
			}
			if try(done + 1) {
				return true
			}
			used[i] = false
			if cur {
				state[op.Arg] = true
			} else {
				delete(state, op.Arg)
			}
		}
		return false
	}
	return try(0)
}
