// Command schedcheck exercises the paper's concurrency framework
// (Section 2) — schedules of the sequential list code, the correctness
// oracle of Definition 1, and per-algorithm acceptance:
//
//	-fig 2       replay Figure 2 (correct; VBL accepts, Lazy rejects)
//	-fig remove  the failed-remove sibling of Figure 2
//	-fig 3       replay Figure 3 (correct; Harris-Michael rejects)
//	-fig all     all of the above (default)
//	-enumerate   exhaustive small-scope optimality check (Theorem 3):
//	             every schedule of every pair of operations, oracle-
//	             filtered, acceptance-tested for the six algorithms in
//	             one walk per model, each walk's wall time printed
//	-scope       quick|full enumeration scope
package main

import (
	"flag"
	"fmt"
	"os"

	"listset/internal/schedule"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to replay: 2, remove, value, 3, all, none")
		enumerate = flag.Bool("enumerate", false, "run the exhaustive small-scope optimality check")
		scopeName = flag.String("scope", "quick", "enumeration scope: quick or full")
		progress  = flag.Bool("progress", false, "run the exhaustive deadlock/livelock-freedom check")
		verbose   = flag.Bool("v", false, "print the schedules in full")
	)
	flag.Parse()

	ok := true
	switch *fig {
	case "2":
		ok = figure2(*verbose) && ok
	case "remove":
		ok = failedRemove(*verbose) && ok
	case "3":
		ok = figure3(*verbose) && ok
	case "value":
		ok = reincarnation(*verbose) && ok
	case "all":
		ok = figure2(*verbose) && ok
		ok = failedRemove(*verbose) && ok
		ok = reincarnation(*verbose) && ok
		ok = figure3(*verbose) && ok
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "schedcheck: unknown -fig %q\n", *fig)
		os.Exit(2)
	}

	if *enumerate {
		var sc schedule.Scope
		switch *scopeName {
		case "quick":
			sc = schedule.QuickScope()
		case "full":
			sc = schedule.DefaultScope()
		default:
			fmt.Fprintf(os.Stderr, "schedcheck: unknown -scope %q\n", *scopeName)
			os.Exit(2)
		}
		ok = runEnumeration(sc) && ok
	}

	if *progress {
		ok = runProgress() && ok
	}

	if !ok {
		os.Exit(1)
	}
}

// runProgress explores every interleaving of contention-heavy operation
// mixes and reports reachable deadlocks (all algorithms) and scheduler
// livelocks (lock-based algorithms) — the executable counterpart of the
// paper's deadlock-freedom discussion.
func runProgress() bool {
	fmt.Println("Exhaustive progress check (deadlock/livelock freedom):")
	mixes := []struct {
		initial []int64
		ops     []schedule.OpSpec
	}{
		{[]int64{1}, []schedule.OpSpec{{Kind: schedule.OpInsert, Arg: 2}, {Kind: schedule.OpInsert, Arg: 2}}},
		{[]int64{1}, []schedule.OpSpec{{Kind: schedule.OpRemove, Arg: 1}, {Kind: schedule.OpRemove, Arg: 1}}},
		{[]int64{1, 2}, []schedule.OpSpec{{Kind: schedule.OpInsert, Arg: 3}, {Kind: schedule.OpRemove, Arg: 2}}},
		{nil, []schedule.OpSpec{{Kind: schedule.OpInsert, Arg: 1}, {Kind: schedule.OpInsert, Arg: 1}, {Kind: schedule.OpRemove, Arg: 1}}},
	}
	ok := true
	algs := []struct {
		alg      schedule.Algorithm
		livelock bool
	}{
		{schedule.AlgVBL, true},
		{schedule.AlgLazy, true},
		{schedule.AlgHarris, true},
		{schedule.AlgCoarse, true},
		{schedule.AlgHOH, true},
		{schedule.AlgOptimistic, true},
	}
	for _, a := range algs {
		states := 0
		verdictStr := "deadlock-free, livelock-free"
		for _, mix := range mixes {
			rep := schedule.CheckProgress(a.alg, mix.initial, mix.ops, a.livelock)
			states += rep.States
			if rep.Deadlock != "" {
				verdictStr = "DEADLOCK: " + rep.Deadlock
				ok = false
				break
			}
			if rep.Livelock != "" {
				verdictStr = "LIVELOCK: " + rep.Livelock
				ok = false
				break
			}
		}
		fmt.Printf("  %-16s %8d states  %s\n", a.alg.String(), states, verdictStr)
	}
	return ok
}

func verdict(label string, want, got bool) bool {
	status := "ok"
	if want != got {
		status = "UNEXPECTED"
	}
	fmt.Printf("  %-55s %-6v %s\n", label, got, status)
	return want == got
}

func figure2(verbose bool) bool {
	fmt.Println("Figure 2: insert(2) ∥ insert(1) on {1}; insert(1) returns false")
	fmt.Println("          between insert(2)'s node creation and its link write.")
	s := schedule.Figure2()
	if verbose {
		fmt.Print(s)
	}
	correct, reason := schedule.Correct(s)
	ok := verdict("oracle: schedule is correct", true, correct)
	if !correct {
		fmt.Printf("    reason: %s\n", reason)
	}
	ok = verdict("VBL accepts", true, schedule.Accepts(schedule.AlgVBL, s)) && ok
	ok = verdict("Lazy accepts (paper: it must NOT)", false, schedule.Accepts(schedule.AlgLazy, s)) && ok
	fmt.Println()
	return ok
}

func failedRemove(verbose bool) bool {
	fmt.Println("Failed-remove sibling of Figure 2: insert(2) ∥ remove(2) on {1};")
	fmt.Println("          remove(2) returns false inside insert(2)'s lock window.")
	s := schedule.FailedRemoveSchedule()
	if verbose {
		fmt.Print(s)
	}
	correct, reason := schedule.Correct(s)
	ok := verdict("oracle: schedule is correct", true, correct)
	if !correct {
		fmt.Printf("    reason: %s\n", reason)
	}
	ok = verdict("VBL accepts", true, schedule.Accepts(schedule.AlgVBL, s)) && ok
	ok = verdict("Lazy accepts (paper: it must NOT)", false, schedule.Accepts(schedule.AlgLazy, s)) && ok
	fmt.Println()
	return ok
}

func reincarnation(verbose bool) bool {
	fmt.Println("Value-awareness witness: remove(5) sleeps between its reads and")
	fmt.Println("          its write while 5 is removed and re-inserted as a NEW node.")
	s := schedule.ReincarnationSchedule()
	if verbose {
		fmt.Print(s)
	}
	correct, reason := schedule.Correct(s)
	ok := verdict("oracle: schedule is correct", true, correct)
	if !correct {
		fmt.Printf("    reason: %s\n", reason)
	}
	ok = verdict("VBL accepts (validates successor BY VALUE)", true, schedule.Accepts(schedule.AlgVBL, s)) && ok
	ok = verdict("Lazy accepts (paper: it must NOT)", false, schedule.Accepts(schedule.AlgLazy, s)) && ok
	fmt.Println()
	return ok
}

func figure3(verbose bool) bool {
	fmt.Println("Figure 3 (adjusted model): insert(1) ∥ remove(2) on {2,3,4}, then")
	fmt.Println("          insert(4) ∥ insert(3); both unlink the marked node.")
	s := schedule.Figure3()
	if verbose {
		fmt.Print(s)
	}
	correct, reason := schedule.Correct(s)
	ok := verdict("oracle: schedule is correct", true, correct)
	if !correct {
		fmt.Printf("    reason: %s\n", reason)
	}
	ok = verdict("Harris-Michael accepts (paper: it must NOT)", false, schedule.Accepts(schedule.AlgHarris, s)) && ok
	fmt.Println()
	return ok
}

func runEnumeration(sc schedule.Scope) bool {
	fmt.Println("Exhaustive small-scope optimality check (Definition 2 / Theorem 3):")
	ok := true
	reps := schedule.CheckOptimality(sc, schedule.AlgCoarse, schedule.AlgHOH, schedule.AlgOptimistic,
		schedule.AlgVBL, schedule.AlgLazy, schedule.AlgHarris)
	coarse, hoh, optimistic, vbl, lazy, harris := reps[0], reps[1], reps[2], reps[3], reps[4], reps[5]

	// The lower rungs of the concurrency hierarchy first.
	fmt.Printf("  %s\n", coarse)
	fmt.Printf("  %s\n", hoh)
	fmt.Printf("  %s\n", optimistic)
	if !(coarse.Accepted < hoh.Accepted && hoh.Accepted < optimistic.Accepted) {
		ok = false
		fmt.Println("  UNEXPECTED: hierarchy coarse < hand-over-hand < optimistic violated")
	}

	fmt.Printf("  %s\n", vbl)
	if !vbl.Optimal() {
		ok = false
		fmt.Println("  UNEXPECTED: VBL should accept every correct schedule; examples:")
		for _, ex := range vbl.RejectedExamples {
			fmt.Print(ex)
		}
	}

	fmt.Printf("  %s\n", lazy)
	if lazy.Optimal() {
		ok = false
		fmt.Println("  UNEXPECTED: Lazy should reject some correct schedules (Figure 2)")
	} else if len(lazy.RejectedExamples) > 0 {
		fmt.Printf("  example correct schedule rejected by Lazy:\n%s", lazy.RejectedExamples[0])
	}
	fmt.Printf("  standard model walked in %.1fs\n", vbl.Elapsed.Seconds())

	fmt.Printf("  %s\n", harris)
	if harris.Optimal() {
		ok = false
		fmt.Println("  UNEXPECTED: Harris should reject some correct adjusted schedules (Figure 3)")
	} else if len(harris.RejectedExamples) > 0 {
		fmt.Printf("  example correct schedule rejected by Harris-Michael:\n%s", harris.RejectedExamples[0])
	}
	fmt.Printf("  adjusted model walked in %.1fs\n", harris.Elapsed.Seconds())

	// Theorems 1 and 2: no algorithm accepts an incorrect schedule.
	for _, r := range reps {
		if r.Unsound > 0 {
			ok = false
			fmt.Printf("  UNEXPECTED: %s accepts %d incorrect schedules; example:\n%s", r.Algorithm, r.Unsound, r.UnsoundExamples[0])
		}
	}
	return ok
}
