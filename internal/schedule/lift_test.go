package schedule

import (
	"strings"
	"testing"
)

// figure2TraceOps is the checkpoint shape a Figure 2 replay captures:
// insert(2) spans the whole trace with its reads closed at the pause
// fire (pos 2) and writes opened at the release (pos 5); the failed
// insert(1) runs to completion strictly inside that bracket.
func figure2TraceOps() []TraceOp {
	return []TraceOp{
		{Spec: OpSpec{Kind: OpInsert, Arg: 2}, Result: true, Begin: 1, End: 6, ReadsBefore: 2, WritesAfter: 5},
		{Spec: OpSpec{Kind: OpInsert, Arg: 1}, Result: false, Begin: 3, End: 4},
	}
}

// figure3TraceOps is the checkpoint shape a Figure 3 replay captures:
// remove(2) parks at its value-aware lock from the pause fire (pos 2)
// to the release (pos 6) while insert(1) runs inside that bracket, then
// restarts; insert(3) later fails inside insert(4)'s span. The restart
// events keep ReadsBefore off the remove, leaving only WritesAfter.
func figure3TraceOps() []TraceOp {
	return []TraceOp{
		{Spec: OpSpec{Kind: OpInsert, Arg: 1}, Result: true, Begin: 3, End: 5},
		{Spec: OpSpec{Kind: OpRemove, Arg: 2}, Result: true, Begin: 1, End: 11, WritesAfter: 6},
		{Spec: OpSpec{Kind: OpInsert, Arg: 3}, Result: false, Begin: 14, End: 15},
		{Spec: OpSpec{Kind: OpInsert, Arg: 4}, Result: false, Begin: 12, End: 17},
	}
}

// TestLiftNoFitFailsFast lifts the Figure 3 shape as a capture without
// restart events gives it: the remove's ReadsBefore at its pause fire
// claims it read nothing after the release, so it cannot have seen the
// window insert(1) changed, and no VBL execution fits. Lift must say so,
// not run out of budget.
func TestLiftNoFitFailsFast(t *testing.T) {
	initial := []int64{2, 3, 4}
	if _, err := Lift(AlgVBL, initial, figure3TraceOps()); err != nil {
		t.Fatalf("the restart-aware Figure 3 shape must lift: %v", err)
	}
	ops := figure3TraceOps()
	ops[1].ReadsBefore = 2
	_, err := Lift(AlgVBL, initial, ops)
	if err == nil || !strings.Contains(err.Error(), "no vbl-accepted schedule") {
		t.Fatalf("err = %v, want a no-consistent-schedule report", err)
	}
}

// TestLiftFigure2 lifts the Figure 2 checkpoint shape: the result must
// be a VBL-accepted schedule that Lazy rejects — the phase constraints
// force the failed insert into the middle of the parked update, which
// is exactly the separation the figure demonstrates.
func TestLiftFigure2(t *testing.T) {
	s, err := Lift(AlgVBL, []int64{1}, figure2TraceOps())
	if err != nil {
		t.Fatal(err)
	}
	if !Accepts(AlgVBL, s) {
		t.Fatalf("lifted schedule not VBL-accepted: %v", s)
	}
	if Accepts(AlgLazy, s) {
		t.Fatalf("lifted Figure 2 schedule must be Lazy-rejected: %v", s)
	}
}

// TestLiftMatchesResults rejects a trace whose observed results no
// machine interleaving can reproduce.
func TestLiftMatchesResults(t *testing.T) {
	ops := figure2TraceOps()
	ops[1].Result = true // insert(1) cannot succeed with 1 present throughout
	_, err := Lift(AlgVBL, []int64{1}, ops)
	if err == nil {
		t.Fatal("Lift accepted a result no interleaving can produce")
	}
	if !strings.Contains(err.Error(), "no") {
		t.Fatalf("err = %v, want a no-consistent-schedule report", err)
	}
}

// TestLiftSequentialSpans lifts non-overlapping spans: the only
// consistent interleavings are the serial ones.
func TestLiftSequentialSpans(t *testing.T) {
	ops := []TraceOp{
		{Spec: OpSpec{Kind: OpInsert, Arg: 5}, Result: true, Begin: 1, End: 2},
		{Spec: OpSpec{Kind: OpRemove, Arg: 5}, Result: true, Begin: 3, End: 4},
		{Spec: OpSpec{Kind: OpContains, Arg: 5}, Result: false, Begin: 5, End: 6},
	}
	s, err := Lift(AlgVBL, nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Serial spans: every step of op 0 precedes every step of op 1, etc.
	last := -1
	for _, e := range s.Events {
		if e.Op < last {
			t.Fatalf("serial spans lifted to an interleaved event order %v", s.Events)
		}
		last = e.Op
	}
}

func TestLiftValidation(t *testing.T) {
	ins := func(v int64, begin uint64) TraceOp {
		return TraceOp{Spec: OpSpec{Kind: OpInsert, Arg: v}, Result: true, Begin: begin, End: begin + 1}
	}
	bad := []struct {
		name    string
		initial []int64
		ops     []TraceOp
	}{
		{"empty", nil, nil},
		{"end before begin", nil, []TraceOp{{Spec: OpSpec{Kind: OpInsert, Arg: 1}, Begin: 5, End: 5}}},
		{"reads-before outside span", nil, []TraceOp{{Spec: OpSpec{Kind: OpInsert, Arg: 1}, Begin: 2, End: 4, ReadsBefore: 1}}},
		{"writes-after outside span", nil, []TraceOp{{Spec: OpSpec{Kind: OpInsert, Arg: 1}, Begin: 2, End: 4, WritesAfter: 4}}},
		{"more ops than a configuration holds", nil, []TraceOp{ins(1, 1), ins(2, 3), ins(3, 5), ins(4, 7), ins(5, 9)}},
		{"more nodes than a heap holds", []int64{1, 2, 3, 4, 5, 6, 7}, []TraceOp{ins(8, 1), ins(9, 3)}},
	}
	for _, c := range bad {
		if _, err := Lift(AlgVBL, c.initial, c.ops); err == nil {
			t.Errorf("%s: Lift accepted invalid input", c.name)
		}
	}
}

// TestLiftAdjustedModel lifts under Harris, whose reference model is
// the adjusted one; the lifted schedule must carry that model so
// Accepts agrees with it.
func TestLiftAdjustedModel(t *testing.T) {
	ops := []TraceOp{
		{Spec: OpSpec{Kind: OpInsert, Arg: 7}, Result: true, Begin: 1, End: 2},
	}
	s, err := Lift(AlgHarris, nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Adjusted {
		t.Fatal("Harris lift must build adjusted-model schedules")
	}
	if !Accepts(AlgHarris, s) {
		t.Fatalf("lifted schedule not Harris-accepted: %v", s)
	}
}
