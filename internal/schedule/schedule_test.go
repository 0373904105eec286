package schedule

import (
	"strings"
	"testing"
)

// --- heap ---------------------------------------------------------------

func TestHeapInitialLayout(t *testing.T) {
	h := NewHeap([]int64{1, 3})
	if h.Val(Head) != MinVal || h.Val(Tail) != MaxVal {
		t.Fatal("sentinel values wrong")
	}
	n1 := h.Next(Head)
	n3 := h.Next(n1)
	if h.Val(n1) != 1 || h.Val(n3) != 3 || h.Next(n3) != Tail {
		t.Fatalf("initial chain wrong: %s", h.Dump())
	}
	got := h.Reachable(false)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Reachable = %v", got)
	}
}

func TestHeapRejectsUnsortedInitial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted initial list accepted")
		}
	}()
	NewHeap([]int64{2, 1})
}

func TestHeapCloneIndependence(t *testing.T) {
	// A heap is a value: copying it by assignment, as every search does
	// with its configurations, must share no state with the original.
	h := NewHeap([]int64{1})
	c := *h
	n1 := h.Next(Head)
	h.SetNext(Head, Tail)
	h.SetDeleted(n1)
	if c.Next(Head) != n1 || c.Deleted(n1) {
		t.Fatal("clone shares state with original")
	}
}

func TestHeapLocks(t *testing.T) {
	h := NewHeap(nil)
	if h.LockedBy(Head) != -1 {
		t.Fatal("fresh node reported locked")
	}
	if !h.TryLock(Head, 3) {
		t.Fatal("TryLock on free node failed")
	}
	if h.TryLock(Head, 4) {
		t.Fatal("TryLock succeeded on held node")
	}
	if h.LockedBy(Head) != 3 {
		t.Fatalf("LockedBy = %d, want 3", h.LockedBy(Head))
	}
	h.Unlock(Head, 3)
	if h.LockedBy(Head) != -1 {
		t.Fatal("node still locked after Unlock")
	}
}

func TestHeapReachableLiveOnly(t *testing.T) {
	h := NewHeap([]int64{1, 2, 3})
	n2 := h.Next(h.Next(Head))
	h.SetDeleted(n2)
	all := h.Reachable(false)
	live := h.Reachable(true)
	if len(all) != 3 || len(live) != 2 {
		t.Fatalf("all=%v live=%v", all, live)
	}
	if live[0] != 1 || live[1] != 3 {
		t.Fatalf("live = %v, want [1 3]", live)
	}
}

func TestHeapReachableCycleSafe(t *testing.T) {
	h := NewHeap([]int64{1, 2})
	n1 := h.Next(Head)
	n2 := h.Next(n1)
	h.SetNext(n2, n1) // cycle, as a corrupted schedule could produce
	got := h.Reachable(false)
	if len(got) != 2 {
		t.Fatalf("cycle traversal returned %v", got)
	}
	if !strings.Contains(h.Dump(), "CYCLE") {
		t.Fatal("Dump did not flag the cycle")
	}
}

// --- sequential machines and Run ----------------------------------------

// runSolo executes a single op to completion and returns its schedule.
func runSolo(t *testing.T, initial []int64, spec OpSpec, adjusted bool) Schedule {
	t.Helper()
	s, err := RunToCompletion(initial, []OpSpec{spec}, adjusted, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeqInsertSchedule(t *testing.T) {
	s := runSolo(t, []int64{1, 3}, OpSpec{Kind: OpInsert, Arg: 2}, false)
	res, ok := s.Results()
	if !ok || !res[0] {
		t.Fatalf("insert(2) result = %v", res)
	}
	final := FinalMembers(s)
	for _, v := range []int64{1, 2, 3} {
		if !final[v] {
			t.Fatalf("final members %v missing %d", sortedKeys(final), v)
		}
	}
	// Event shape: Rnext, Rval, Rnext, Rval, new, Wnext, ret.
	kinds := []EventKind{EvReadNext, EvReadVal, EvReadNext, EvReadVal, EvNewNode, EvWriteNext, EvReturn}
	if len(s.Events) != len(kinds) {
		t.Fatalf("event count %d, want %d:\n%s", len(s.Events), len(kinds), s)
	}
	for i, k := range kinds {
		if s.Events[i].Kind != k {
			t.Fatalf("event %d kind %v, want %v:\n%s", i, s.Events[i].Kind, k, s)
		}
	}
}

func TestSeqInsertDuplicate(t *testing.T) {
	s := runSolo(t, []int64{2}, OpSpec{Kind: OpInsert, Arg: 2}, false)
	res, _ := s.Results()
	if res[0] {
		t.Fatal("insert of present value returned true")
	}
	if got := FinalMembers(s); len(got) != 1 || !got[2] {
		t.Fatalf("final members %v", sortedKeys(got))
	}
}

func TestSeqRemoveSchedules(t *testing.T) {
	hit := runSolo(t, []int64{2}, OpSpec{Kind: OpRemove, Arg: 2}, false)
	res, _ := hit.Results()
	if !res[0] {
		t.Fatal("remove of present value returned false")
	}
	if got := FinalMembers(hit); len(got) != 0 {
		t.Fatalf("final members %v after remove", sortedKeys(got))
	}
	miss := runSolo(t, []int64{1}, OpSpec{Kind: OpRemove, Arg: 2}, false)
	res, _ = miss.Results()
	if res[0] {
		t.Fatal("remove of absent value returned true")
	}
}

func TestSeqContainsSchedules(t *testing.T) {
	for _, tc := range []struct {
		initial []int64
		arg     int64
		want    bool
	}{
		{[]int64{5}, 5, true},
		{[]int64{5}, 4, false},
		{nil, 1, false},
		{[]int64{1, 2, 3}, 3, true},
	} {
		s := runSolo(t, tc.initial, OpSpec{Kind: OpContains, Arg: tc.arg}, false)
		res, _ := s.Results()
		if res[0] != tc.want {
			t.Fatalf("contains(%d) on %v = %v, want %v", tc.arg, tc.initial, res[0], tc.want)
		}
	}
}

func TestAdjustedRemoveMarksOnly(t *testing.T) {
	s := runSolo(t, []int64{2, 3}, OpSpec{Kind: OpRemove, Arg: 2}, true)
	res, _ := s.Results()
	if !res[0] {
		t.Fatal("adjusted remove returned false")
	}
	var sawMark, sawWrite bool
	for _, e := range s.Events {
		if e.Kind == EvMark {
			sawMark = true
		}
		if e.Kind == EvWriteNext {
			sawWrite = true
		}
	}
	if !sawMark || sawWrite {
		t.Fatalf("adjusted remove events wrong (mark=%v write=%v):\n%s", sawMark, sawWrite, s)
	}
	// The node is logically deleted but still reachable.
	h := Replay(s)
	if got := h.Reachable(false); len(got) != 2 {
		t.Fatalf("raw chain %v, want both nodes", got)
	}
	if got := h.Reachable(true); len(got) != 1 || got[0] != 3 {
		t.Fatalf("live chain %v, want [3]", got)
	}
}

func TestAdjustedTraversalHelps(t *testing.T) {
	// remove(2) marks; then insert(4) must unlink the marked node on its
	// way past (exported helping write).
	ops := []OpSpec{{Kind: OpRemove, Arg: 2}, {Kind: OpInsert, Arg: 4}}
	// Run remove to completion first, then insert.
	s, err := RunToCompletion([]int64{2, 3}, ops, true, []int{0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var helpWrites int
	for _, e := range s.Events {
		if e.Kind == EvWriteNext && e.Op == 1 && e.Node == Head {
			helpWrites++
		}
	}
	if helpWrites != 1 {
		t.Fatalf("helping writes by insert = %d, want 1:\n%s", helpWrites, s)
	}
	res, _ := s.Results()
	if !res[0] || !res[1] {
		t.Fatalf("results = %v, want both true", res)
	}
	final := FinalMembers(s)
	if final[2] || !final[3] || !final[4] {
		t.Fatalf("final members %v, want {3,4}", sortedKeys(final))
	}
}

func TestRunRejectsBadOrders(t *testing.T) {
	ops := []OpSpec{{Kind: OpContains, Arg: 1}}
	if _, err := Run(nil, ops, false, []int{1}); err == nil {
		t.Fatal("out-of-range op index accepted")
	}
	if _, err := Run(nil, ops, false, []int{0}); err == nil {
		t.Fatal("incomplete order accepted")
	}
	if _, err := Run(nil, ops, false, []int{0, 0, 0, 0, 0}); err == nil {
		t.Fatal("order stepping a completed op accepted")
	}
}

// --- oracle ---------------------------------------------------------------

func TestOracleAcceptsSequentialComposition(t *testing.T) {
	// insert(2) fully before remove(2): trivially correct.
	ops := []OpSpec{{Kind: OpInsert, Arg: 2}, {Kind: OpRemove, Arg: 2}}
	s, err := RunToCompletion(nil, ops, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := Correct(s); !ok {
		t.Fatalf("sequential composition rejected: %s\n%s", reason, s)
	}
}

func TestOracleRejectsLostUpdate(t *testing.T) {
	// The paper's §2.2 example: insert(1) and insert(2) on the empty
	// list both read head and tail, then both write head.next — the
	// second write overwrites the first (lost update). Technically
	// linearizable as a history, but the extension σ̄ exposes it.
	ops := []OpSpec{{Kind: OpInsert, Arg: 1}, {Kind: OpInsert, Arg: 2}}
	order := []int{
		0, 0, // op0: Rnext(h)=tail, Rval(tail)
		1, 1, // op1: Rnext(h)=tail, Rval(tail)
		0, 0, // op0: new(N2), Wnext(h=N2)
		1, 1, // op1: new(N3), Wnext(h=N3) — overwrites op0's link
		0, 1, // returns
	}
	s, err := Run(nil, ops, false, order)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Results()
	if !res[0] || !res[1] {
		t.Fatalf("both inserts should report success: %v", res)
	}
	final := FinalMembers(s)
	if final[1] {
		t.Fatalf("expected 1 to be lost, final = %v", sortedKeys(final))
	}
	if ok, _ := Correct(s); ok {
		t.Fatalf("lost-update schedule accepted as correct:\n%s", s)
	}
}

func TestOracleRejectsNonAscendingReads(t *testing.T) {
	// remove(2) unlinks node 2 while contains(2)'s traversal sits just
	// past head; if the contains then reads a node with a smaller value
	// than one it already saw, it is not locally serializable. Build a
	// synthetic schedule by corrupting a correct one.
	s := runSolo(t, []int64{1, 2}, OpSpec{Kind: OpContains, Arg: 2}, false)
	if ok, _ := Correct(s); !ok {
		t.Fatal("baseline solo contains should be correct")
	}
	// Corrupt a read value so it descends.
	corrupted := s
	corrupted.Events = append([]Event(nil), s.Events...)
	for i := range corrupted.Events {
		if corrupted.Events[i].Kind == EvReadVal && corrupted.Events[i].Val == 2 {
			corrupted.Events[i].Val = 0
		}
	}
	if ok, _ := Correct(corrupted); ok {
		t.Fatal("descending-reads schedule accepted")
	}
}

func TestOracleRejectsWrongResult(t *testing.T) {
	s := runSolo(t, []int64{7}, OpSpec{Kind: OpContains, Arg: 7}, false)
	s.Events = append([]Event(nil), s.Events...)
	for i := range s.Events {
		if s.Events[i].Kind == EvReturn {
			s.Events[i].Result = false // lie about the outcome
		}
	}
	if ok, _ := Correct(s); ok {
		t.Fatal("schedule with wrong contains result accepted")
	}
}

func TestOracleRequiresReturns(t *testing.T) {
	s := runSolo(t, nil, OpSpec{Kind: OpContains, Arg: 1}, false)
	s.Events = s.Events[:len(s.Events)-1] // drop the return
	if ok, reason := Correct(s); ok || !strings.Contains(reason, "return") {
		t.Fatalf("return-less schedule verdict = %v (%s)", ok, reason)
	}
}

// --- acceptance -----------------------------------------------------------

func TestAllAlgorithmsAcceptSoloSchedules(t *testing.T) {
	specs := []OpSpec{
		{Kind: OpInsert, Arg: 2},
		{Kind: OpRemove, Arg: 1},
		{Kind: OpRemove, Arg: 2},
		{Kind: OpContains, Arg: 1},
		{Kind: OpContains, Arg: 2},
	}
	for _, adjusted := range []bool{false, true} {
		algs := []Algorithm{AlgSeq}
		if adjusted {
			algs = append(algs, AlgHarris)
		} else {
			algs = append(algs, AlgVBL, AlgLazy)
		}
		for _, spec := range specs {
			s := runSolo(t, []int64{1, 3}, spec, adjusted)
			for _, alg := range algs {
				if !Accepts(alg, s) {
					t.Errorf("%v does not accept solo %s (adjusted=%v):\n%s", alg, spec, adjusted, s)
				}
			}
		}
	}
}

func TestAcceptsRejectsModelMismatch(t *testing.T) {
	std := runSolo(t, []int64{1}, OpSpec{Kind: OpContains, Arg: 1}, false)
	adj := runSolo(t, []int64{1}, OpSpec{Kind: OpContains, Arg: 1}, true)
	if Accepts(AlgHarris, std) {
		t.Fatal("Harris accepted a standard-model schedule")
	}
	if Accepts(AlgVBL, adj) || Accepts(AlgLazy, adj) {
		t.Fatal("VBL/Lazy accepted an adjusted-model schedule")
	}
}

// --- the paper's figures ---------------------------------------------------

func TestFigure2(t *testing.T) {
	s := Figure2()
	if ok, reason := Correct(s); !ok {
		t.Fatalf("Figure 2 schedule should be correct: %s\n%s", reason, s)
	}
	if !Accepts(AlgVBL, s) {
		t.Fatalf("VBL must accept Figure 2:\n%s", s)
	}
	if Accepts(AlgLazy, s) {
		t.Fatalf("Lazy must reject Figure 2:\n%s", s)
	}
}

func TestFailedRemoveSchedule(t *testing.T) {
	s := FailedRemoveSchedule()
	if ok, reason := Correct(s); !ok {
		t.Fatalf("failed-remove schedule should be correct: %s\n%s", reason, s)
	}
	if !Accepts(AlgVBL, s) {
		t.Fatalf("VBL must accept the failed-remove schedule:\n%s", s)
	}
	if Accepts(AlgLazy, s) {
		t.Fatalf("Lazy must reject the failed-remove schedule:\n%s", s)
	}
}

func TestReincarnationSchedule(t *testing.T) {
	s := ReincarnationSchedule()
	if ok, reason := Correct(s); !ok {
		t.Fatalf("reincarnation schedule should be correct: %s\n%s", reason, s)
	}
	res, _ := s.Results()
	for i, r := range res {
		if !r {
			t.Fatalf("op %d should return true: %v", i, res)
		}
	}
	if got := FinalMembers(s); len(got) != 0 {
		t.Fatalf("final members = %v, want empty", sortedKeys(got))
	}
	if !Accepts(AlgVBL, s) {
		t.Fatalf("VBL must accept the reincarnation schedule (value-aware validation):\n%s", s)
	}
	if Accepts(AlgLazy, s) {
		t.Fatalf("Lazy must reject the reincarnation schedule:\n%s", s)
	}
}

func TestFigure3(t *testing.T) {
	s := Figure3()
	if !s.Adjusted {
		t.Fatal("Figure 3 must be an adjusted-model schedule")
	}
	if ok, reason := Correct(s); !ok {
		t.Fatalf("Figure 3 schedule should be correct: %s\n%s", reason, s)
	}
	if Accepts(AlgHarris, s) {
		t.Fatalf("Harris-Michael must reject Figure 3:\n%s", s)
	}
}

func TestFigure3PrefixAcceptedByHarris(t *testing.T) {
	// Phase one alone (insert(1) ∥ remove(2) with the failed unlink) IS
	// accepted by Harris — the rejection comes from phase two.
	ops := []OpSpec{{Kind: OpInsert, Arg: 1}, {Kind: OpRemove, Arg: 2}}
	order := []int{0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1}
	s, err := Run([]int64{2, 3, 4}, ops, true, order)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := Correct(s); !ok {
		t.Fatalf("phase-one schedule should be correct: %s\n%s", reason, s)
	}
	if !Accepts(AlgHarris, s) {
		t.Fatalf("Harris must accept phase one of Figure 3:\n%s", s)
	}
}

// --- small-scope optimality (empirical Theorem 3) --------------------------

func TestSmallScopeOptimality(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("exhaustive check skipped in -short and -race modes")
	}
	// QuickScope keeps the suite fast; cmd/schedcheck -enumerate runs
	// the full DefaultScope (VBL: 175136/175136 correct schedules
	// accepted; Lazy rejects 25548; Harris rejects 29360).
	reps := CheckOptimality(QuickScope(), AlgVBL, AlgLazy, AlgHarris)
	vbl, lazy, harris := reps[0], reps[1], reps[2]
	t.Logf("%s", vbl)
	if !vbl.Optimal() {
		for _, ex := range vbl.RejectedExamples {
			t.Logf("VBL rejected:\n%s", ex)
		}
		t.Fatalf("VBL is not optimal in the small scope: %s", vbl)
	}

	t.Logf("%s", lazy)
	if lazy.Optimal() {
		t.Fatal("Lazy unexpectedly accepted every correct schedule — the Figure 2 family should be rejected")
	}
	if lazy.Correct != vbl.Correct || lazy.Schedules != vbl.Schedules {
		t.Fatalf("scope mismatch between runs: vbl=%s lazy=%s", vbl, lazy)
	}

	t.Logf("%s", harris)
	if harris.Accepted == 0 {
		t.Fatal("Harris accepted no correct adjusted schedules — model broken")
	}
	if harris.Optimal() {
		t.Fatal("Harris unexpectedly optimal — the Figure 3 family should be rejected")
	}
}
