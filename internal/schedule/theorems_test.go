package schedule

import (
	"math/rand"
	"testing"
)

// Empirical counterparts of the paper's Theorems 1 and 2 (soundness:
// the algorithms accept ONLY correct schedules) complementing the
// optimality check of Theorem 3 in schedule_test.go.

// theoremScope is the tiny scope of the soundness checks: every pair of
// operations on 1 and 2 over the lists {}, {1} and {1,2}.
func theoremScope() Scope {
	return Scope{
		Initials: [][]int64{{}, {1}, {1, 2}},
		Args:     []int64{1, 2},
		Kinds:    []OpKind{OpInsert, OpRemove, OpContains},
	}
}

// checkSound fails the test if an algorithm accepts an incorrect
// schedule of the theorem scope, or if the scope is degenerate.
func checkSound(t *testing.T, algs ...Algorithm) {
	t.Helper()
	for _, r := range CheckOptimality(theoremScope(), algs...) {
		if r.Correct == 0 || r.Correct == r.Schedules {
			t.Fatalf("degenerate scope: %d correct of %d", r.Correct, r.Schedules)
		}
		for _, s := range r.UnsoundExamples {
			t.Errorf("%s accepts an incorrect schedule:\n%s", r.Algorithm, s)
		}
		if r.Unsound > 0 {
			t.Fatalf("%s accepted %d/%d incorrect schedules", r.Algorithm, r.Unsound, r.Schedules-r.Correct)
		}
	}
}

// TestThreeOpOptimality extends the Theorem 3 evidence beyond pairs:
// every schedule of selected THREE-operation mixes (including the
// reincarnation shape — two updates racing a third operation on one
// value) must, when correct, be accepted by VBL, and when incorrect,
// rejected. The insert race with a reader has millions of schedules, so
// it is checked on a sample of seeded random interleavings; the other
// mixes are checked whole.
func TestThreeOpOptimality(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("enumeration skipped in -short and -race modes")
	}
	mixes := []struct {
		initial []int64
		ops     []OpSpec
		sample  int // random interleavings drawn; 0 walks every schedule
	}{
		// The reincarnation family: remove ∥ remove ∥ insert on one value.
		{[]int64{1}, []OpSpec{{Kind: OpRemove, Arg: 1}, {Kind: OpRemove, Arg: 1}, {Kind: OpInsert, Arg: 1}}, 0},
		// Insert race with a reader.
		{[]int64{1}, []OpSpec{{Kind: OpInsert, Arg: 2}, {Kind: OpInsert, Arg: 2}, {Kind: OpContains, Arg: 2}}, 3000},
		// Mixed keys: a window shared by three updates.
		{[]int64{1}, []OpSpec{{Kind: OpInsert, Arg: 2}, {Kind: OpRemove, Arg: 1}, {Kind: OpInsert, Arg: 1}}, 0},
		// The reincarnation's impostor: the removed victim's place goes
		// to another value, which only value-aware validation tells apart.
		{[]int64{2}, []OpSpec{{Kind: OpRemove, Arg: 2}, {Kind: OpRemove, Arg: 2}, {Kind: OpInsert, Arg: 1}}, 0},
	}
	for mi, mix := range mixes {
		schedules, correct := 0, 0
		judge := func(s Schedule, accepted bool) bool {
			schedules++
			results, _ := s.Results()
			ok, _ := serializableAndLinearizable(s, results)
			if ok {
				correct++
			}
			if ok != accepted {
				t.Fatalf("mix %d: VBL verdict %v on a 3-op schedule whose correctness is %v:\n%s", mi, accepted, ok, s)
			}
			return true
		}
		if mix.sample == 0 {
			explore(mix.initial, mix.ops, false, []Algorithm{AlgVBL}, func(s Schedule, accepted []bool) bool {
				return judge(s, accepted[0])
			})
		} else {
			rng := rand.New(rand.NewSource(1))
			seen := map[string]bool{}
			for n := 0; n < mix.sample; n++ {
				s := randomSchedule(rng, mix.initial, mix.ops)
				if !seen[s.Key()] {
					seen[s.Key()] = true
					judge(s, Accepts(AlgVBL, s))
				}
			}
		}
		t.Logf("3-op mix %d: VBL accepted all %d correct schedules of %d", mi, correct, schedules)
		if correct == 0 {
			t.Fatalf("mix %d: no correct schedules generated — scope degenerate", mi)
		}
	}
}

// randomSchedule runs the sequential machines of ops under a scheduler
// that advances a uniformly random unfinished op at every step.
func randomSchedule(rng *rand.Rand, initial []int64, ops []OpSpec) Schedule {
	sys, c := newSystem(AlgSeq, initial, ops, false)
	s := Schedule{Initial: initial, Ops: ops}
	for !sys.allDone(&c) {
		i := rng.Intn(len(ops))
		if c.regs[i].pc == aDone {
			continue
		}
		if ev, exported := sys.step(&c, i); exported {
			s.Events = append(s.Events, ev)
		}
	}
	return s
}

// TestSeqAcceptsEveryGeneratedSchedule: §-membership is checked by
// acceptance of the sequential machines, so by construction every
// generated schedule must be accepted — a completeness check of the
// Accepts fold against the explorer's tree.
func TestSeqAcceptsEveryGeneratedSchedule(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("enumeration skipped in -short and -race modes")
	}
	for _, adjusted := range []bool{false, true} {
		n := 0
		theoremScope().each(func(initial []int64, ops []OpSpec) {
			for _, s := range GenerateAll(initial, ops, adjusted, 0) {
				n++
				if !Accepts(AlgSeq, s) {
					t.Fatalf("sequential machines do not re-accept a schedule they generated (adjusted=%v):\n%s", adjusted, s)
				}
			}
		})
		if n == 0 {
			t.Fatalf("no schedules generated (adjusted=%v)", adjusted)
		}
	}
}

// TestVBLAcceptsOnlyCorrectSchedules is the empirical Theorem 1+2: no
// incorrect schedule may be accepted by VBL.
func TestVBLAcceptsOnlyCorrectSchedules(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("enumeration skipped in -short and -race modes")
	}
	checkSound(t, AlgVBL)
}

// TestLazyAndHarrisAcceptOnlyCorrectSchedules: the baselines are
// sub-optimal but still sound — they too must reject every incorrect
// schedule.
func TestLazyAndHarrisAcceptOnlyCorrectSchedules(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("enumeration skipped in -short and -race modes")
	}
	checkSound(t, AlgLazy, AlgHarris)
}

// TestFullScopeCounts pins the counts cmd/schedcheck -enumerate -scope
// full prints: the full DefaultScope, every algorithm judged in one walk
// per model, none accepting an incorrect schedule.
func TestFullScopeCounts(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("enumeration skipped in -short and -race modes")
	}
	want := []struct {
		alg                          Algorithm
		accepted, correct, schedules int
	}{
		{AlgCoarse, 810, 175136, 278000},
		{AlgHOH, 6304, 175136, 278000},
		{AlgOptimistic, 126248, 175136, 278000},
		{AlgLazy, 149588, 175136, 278000},
		{AlgVBL, 175136, 175136, 278000},
		{AlgHarris, 187260, 216620, 286860},
	}
	var algs []Algorithm
	for _, w := range want {
		algs = append(algs, w.alg)
	}
	for i, r := range CheckOptimality(DefaultScope(), algs...) {
		w := want[i]
		if r.Accepted != w.accepted || r.Correct != w.correct || r.Schedules != w.schedules || r.Unsound != 0 {
			t.Errorf("%s: accepted %d/%d correct of %d, %d incorrect accepted; want %d/%d of %d, none",
				r.Algorithm, r.Accepted, r.Correct, r.Schedules, r.Unsound, w.accepted, w.correct, w.schedules)
		}
	}
}
