package schedule

import "testing"

// The concurrency hierarchy: accepted-schedule counts must be strictly
// ordered coarse < hand-over-hand < lazy < vbl, with vbl accepting
// everything correct — the paper's framework applied across the whole
// family of list algorithms.

func TestCoarseAndHOHAcceptSoloSchedules(t *testing.T) {
	specs := []OpSpec{
		{Kind: OpInsert, Arg: 2},
		{Kind: OpRemove, Arg: 1},
		{Kind: OpRemove, Arg: 2},
		{Kind: OpContains, Arg: 1},
	}
	for _, spec := range specs {
		s := runSolo(t, []int64{1, 3}, spec, false)
		for _, alg := range []Algorithm{AlgCoarse, AlgHOH, AlgOptimistic} {
			if !Accepts(alg, s) {
				t.Errorf("%v does not accept solo %s:\n%s", alg, spec, s)
			}
		}
	}
}

func TestOptimisticRejectsReadDuringLockWindow(t *testing.T) {
	// Figure 2 requires insert(1) to return false inside insert(2)'s
	// write window: the optimistic list rejects it for the same reason
	// Lazy does (insert(1)'s completion needs the locks).
	s := Figure2()
	if Accepts(AlgOptimistic, s) {
		t.Fatal("optimistic list must reject Figure 2")
	}
	// It also rejects the Lazy-accepted marked-read style schedule where
	// a contains completes between a remove's read of the victim's
	// successor and its unlink write, because contains needs the very
	// locks the remove holds across that span.
	ops := []OpSpec{{Kind: OpRemove, Arg: 1}, {Kind: OpContains, Arg: 1}}
	contained, err := Run([]int64{1}, ops, false, []int{
		0, 0, 0, // remove(1): Rnext(h), Rval(N2), Rnext(N2)
		1, 1, 1, // contains(1) completes with true
		0, 0, // remove: Wnext(h=tail), ret(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Correct(contained); !ok {
		t.Fatal("the contains-inside-remove schedule should be correct")
	}
	if !Accepts(AlgLazy, contained) {
		t.Fatal("Lazy should accept the contains-inside-remove schedule (its contains is wait-free)")
	}
	if Accepts(AlgOptimistic, contained) {
		t.Fatal("optimistic must reject it: its contains takes the locks the remove holds")
	}
	if !Accepts(AlgVBL, contained) {
		t.Fatal("VBL should accept the contains-inside-remove schedule")
	}
}

func TestCoarseAcceptsOnlyBlockSequential(t *testing.T) {
	// Sequential composition: accepted.
	ops := []OpSpec{{Kind: OpInsert, Arg: 1}, {Kind: OpContains, Arg: 1}}
	seqComp, err := RunToCompletion(nil, ops, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Accepts(AlgCoarse, seqComp) {
		t.Fatalf("coarse must accept a sequential composition:\n%s", seqComp)
	}
	// Any interleaving at all: rejected. Two contains(2) on {1,2},
	// pipelined: op1 enters the list while op0 is one window ahead.
	ops = []OpSpec{{Kind: OpContains, Arg: 2}, {Kind: OpContains, Arg: 2}}
	pipelined, err := Run([]int64{1, 2}, ops, false, []int{
		0, 0, // op0: Rnext(h), Rval(1) — window advances off head
		1,       // op1: Rnext(h) — enters behind op0
		0, 0, 0, // op0: Rnext(1), Rval(2), ret(true)
		1, 1, 1, 1, // op1 finishes
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Correct(pipelined); !ok {
		t.Fatal("pipelined reads should be correct")
	}
	if Accepts(AlgCoarse, pipelined) {
		t.Fatalf("coarse must reject interleaved operations:\n%s", pipelined)
	}
	// Hand-over-hand pipelines them: op0 ahead of op1 down the list.
	if !Accepts(AlgHOH, pipelined) {
		t.Fatalf("hand-over-hand should accept a pipelined read pair:\n%s", pipelined)
	}
}

func TestHOHRejectsOvertaking(t *testing.T) {
	// Two contains on {1,2}: op1 starts after op0 but finishes its first
	// read before op0 — overtaking inside the list, which a sliding lock
	// window forbids but wait-free traversals allow.
	ops := []OpSpec{{Kind: OpContains, Arg: 2}, {Kind: OpContains, Arg: 2}}
	overtake, err := Run([]int64{1, 2}, ops, false, []int{
		0,          // op0: Rnext(h)
		1, 1, 1, 1, // op1: full traversal: Rnext(h), Rval(1), Rnext, Rval(2)
		1,          // op1: ret
		0, 0, 0, 0, // op0 finishes
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Correct(overtake); !ok {
		t.Fatal("overtaking reads should be correct")
	}
	if Accepts(AlgHOH, overtake) {
		t.Fatalf("hand-over-hand must reject overtaking:\n%s", overtake)
	}
	if !Accepts(AlgLazy, overtake) || !Accepts(AlgVBL, overtake) {
		t.Fatal("wait-free traversals must accept overtaking reads")
	}
}

// TestConcurrencyHierarchy quantifies the accepted-schedule counts over
// the quick scope: coarse < hoh < lazy < vbl = correct.
func TestConcurrencyHierarchy(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("enumeration skipped in -short and -race modes")
	}
	reports := map[Algorithm]OptimalityReport{}
	for _, r := range CheckOptimality(QuickScope(), AlgCoarse, AlgHOH, AlgOptimistic, AlgLazy, AlgVBL) {
		reports[r.Algorithm] = r
		t.Logf("%s", r)
	}
	if !(reports[AlgCoarse].Accepted < reports[AlgHOH].Accepted) {
		t.Errorf("hierarchy violated: coarse %d !< hoh %d", reports[AlgCoarse].Accepted, reports[AlgHOH].Accepted)
	}
	if !(reports[AlgHOH].Accepted < reports[AlgOptimistic].Accepted) {
		t.Errorf("hierarchy violated: hoh %d !< optimistic %d", reports[AlgHOH].Accepted, reports[AlgOptimistic].Accepted)
	}
	if !(reports[AlgOptimistic].Accepted < reports[AlgLazy].Accepted) {
		t.Errorf("hierarchy violated: optimistic %d !< lazy %d", reports[AlgOptimistic].Accepted, reports[AlgLazy].Accepted)
	}
	if !(reports[AlgLazy].Accepted < reports[AlgVBL].Accepted) {
		t.Errorf("hierarchy violated: lazy %d !< vbl %d", reports[AlgLazy].Accepted, reports[AlgVBL].Accepted)
	}
	if !reports[AlgVBL].Optimal() {
		t.Error("vbl must top the hierarchy by accepting every correct schedule")
	}
}
