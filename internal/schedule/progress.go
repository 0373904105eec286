package schedule

import (
	"fmt"
	"strings"
)

// Deadlock-freedom checking (the progress half of the paper's
// correctness discussion in §3.2): explore EVERY interleaving of an
// algorithm's machines — not driven by any schedule — and verify that
// no reachable state is a total deadlock (some unfinished operation can
// always step) and that every execution path terminates.
//
// Machines run in "free run" mode: no events are exported and attempts
// behave exactly as the real algorithm's do (failed validations retry,
// successful ones complete), so the explored state graph is the true
// one. Termination of every path is checked by rejecting cycles on the
// DFS stack: a cycle would be an execution in which the adversarial
// scheduler keeps the system busy forever without any operation
// completing — a livelock. (Lock-free algorithms like Harris-Michael
// genuinely contain such adversarial loops — two operations can
// alternately fail each other's CAS — so the livelock check applies
// only to the lock-based algorithms, where the paper claims
// deadlock-freedom.)

// ProgressReport is the outcome of CheckProgress.
type ProgressReport struct {
	Algorithm Algorithm
	// States is the number of distinct states explored.
	States int
	// Deadlock is a description of a reachable total deadlock, if any.
	Deadlock string
	// Livelock is a description of a reachable scheduler loop in which
	// no operation completes, if any (only detected when checkLivelock).
	Livelock string
}

// OK reports whether no deadlock (and, if checked, no livelock) was
// found.
func (r ProgressReport) OK() bool { return r.Deadlock == "" && r.Livelock == "" }

// CheckProgress explores all interleavings of the given operations
// under alg from the initial list and checks for total deadlocks, and —
// when checkLivelock is set — for non-terminating scheduler loops.
func CheckProgress(alg Algorithm, initial []int64, ops []OpSpec, checkLivelock bool) ProgressReport {
	rep := ProgressReport{Algorithm: alg}
	sys, c0 := newSystem(alg, initial, ops, alg.Adjusted())
	for i := range sys {
		sys[i].setFreeRun()
		c0.regs[i] = sys[i].regs
	}
	visited := make(map[config]struct{})
	onStack := make(map[config]struct{})

	var dfs func(c config) bool // false => stop (flaw found)
	dfs = func(c config) bool {
		if _, dup := visited[c]; dup {
			if checkLivelock {
				if _, cyc := onStack[c]; cyc {
					rep.Livelock = sys.describe(&c)
					return false
				}
			}
			return true
		}
		visited[c] = struct{}{}
		if checkLivelock {
			onStack[c] = struct{}{}
			defer delete(onStack, c)
		}
		rep.States++

		anyUnfinished := false
		anyEnabled := false
		for i := range sys {
			m := sys.machine(&c, i)
			if m.done() {
				continue
			}
			anyUnfinished = true
			if m.poisoned() {
				panic("schedule: poisoned machine in free run")
			}
			if !m.enabled(&c.h) {
				continue
			}
			anyEnabled = true
			c2 := c
			sys.step(&c2, i)
			if !dfs(c2) {
				return false
			}
		}
		if anyUnfinished && !anyEnabled {
			rep.Deadlock = sys.describe(&c)
			return false
		}
		return true
	}
	dfs(c0)
	return rep
}

// describe renders c's registers, one op at a time.
func (sys system) describe(c *config) string {
	var b strings.Builder
	for i := range sys {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "op%d:%+v", i, c.regs[i])
	}
	return b.String()
}
