package listset

import (
	"fmt"
	"time"

	"listset/internal/core"
	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/obs/trace"
)

// Deterministic figure replays with the flight recorder attached: the
// same one-shot failpoint recipes the figure tests pin (see
// figure_schedules_test.go), but driven as library functions that
// bracket every operation with trace spans. A capture of a replay
// lifts — via trace.Capture.ScheduleOps and schedule.Lift — back into
// the paper's accepted schedule, machine-checked end to end; that
// round trip is what scripts/trace_smoke.sh and the round-trip tests
// exercise.

// replayPauseTimeout bounds every wait on a parked goroutine.
const replayPauseTimeout = 5 * time.Second

// tracedOp brackets one operation with op-begin/op-end span records.
func tracedOp(tr *trace.Tracer, worker int, kind obs.OpKind, key int64, op func(int64) bool) bool {
	tr.OpBegin(worker, kind, key)
	ok := op(key)
	tr.OpEnd(worker, kind, key, ok)
	return ok
}

// ReplayFigure2 drives the paper's Figure 2 schedule against VBL with
// the tracer capturing it: worker 0's Insert(2) parks pre-lock at
// vbl-lock-next-at, worker 1's Insert(1) fails to completion inline,
// worker 0 resumes and links. It returns the initial set contents
// (the lincheck/Lift baseline) or an error when the replay does not
// reproduce the schedule. tr needs at least 2 worker rings.
func ReplayFigure2(tr *trace.Tracer) ([]int64, error) {
	s := core.New()
	fps := failpoint.NewSet()
	probes := obs.NewProbes()
	s.SetFailpoints(fps)
	s.SetProbes(probes)
	if !s.Insert(1) {
		return nil, fmt.Errorf("replay: seeding Insert(1) failed")
	}
	// Sinks attach after seeding (population is not part of the
	// schedule) and detach after the parked goroutine drains.
	probes.SetSink(tr)
	fps.SetSink(tr)
	defer probes.SetSink(nil)
	defer fps.SetSink(nil)

	retryBase := s.RetryStats()
	pause, err := fps.PauseAt(failpoint.SiteVBLLockNextAt, 2)
	if err != nil {
		return nil, err
	}
	done := make(chan bool, 1)
	go func() { done <- tracedOp(tr, 0, obs.OpInsert, 2, s.Insert) }()
	if err := pause.AwaitReached(replayPauseTimeout); err != nil {
		return nil, err
	}
	if tracedOp(tr, 1, obs.OpInsert, 1, s.Insert) {
		return nil, fmt.Errorf("replay: Insert(1) = true with 1 present")
	}
	pause.Resume()
	select {
	case ok := <-done:
		if !ok {
			return nil, fmt.Errorf("replay: Insert(2) = false on a set without 2")
		}
	case <-time.After(replayPauseTimeout):
		return nil, fmt.Errorf("replay: Insert(2) did not complete after Resume")
	}
	if n := s.RetryStats().Sub(retryBase).Restarts; n != 0 {
		return nil, fmt.Errorf("replay: VBL restarted %d times on the Figure 2 schedule; want 0", n)
	}
	return []int64{1}, nil
}

// ReplayFigure3 drives the paper's Figure 3 schedule (both phases of
// the figure test) under the tracer: worker 0's Remove(2) parks at the
// value-aware lock, worker 1's Insert(1) invalidates its window, the
// remove recovers with exactly one prev-restart; then worker 0's
// Insert(4) parks at the traverse anchor while worker 1's Insert(3)
// fails to completion wait-free. Returns the initial set contents.
func ReplayFigure3(tr *trace.Tracer) ([]int64, error) {
	s := core.New()
	fps := failpoint.NewSet()
	probes := obs.NewProbes()
	s.SetFailpoints(fps)
	s.SetProbes(probes)
	initial := []int64{2, 3, 4}
	for _, v := range initial {
		if !s.Insert(v) {
			return nil, fmt.Errorf("replay: seeding Insert(%d) failed", v)
		}
	}
	probes.SetSink(tr)
	fps.SetSink(tr)
	defer probes.SetSink(nil)
	defer fps.SetSink(nil)

	// Phase 1: the window-invalidation interleaving.
	retryBase := s.RetryStats()
	pause, err := fps.PauseAt(failpoint.SiteVBLLockNextAtValue, 2)
	if err != nil {
		return nil, err
	}
	done := make(chan bool, 1)
	go func() { done <- tracedOp(tr, 0, obs.OpRemove, 2, s.Remove) }()
	if err := pause.AwaitReached(replayPauseTimeout); err != nil {
		return nil, err
	}
	if !tracedOp(tr, 1, obs.OpInsert, 1, s.Insert) {
		return nil, fmt.Errorf("replay: Insert(1) = false with 1 absent")
	}
	pause.Resume()
	select {
	case ok := <-done:
		if !ok {
			return nil, fmt.Errorf("replay: Remove(2) = false with 2 present")
		}
	case <-time.After(replayPauseTimeout):
		return nil, fmt.Errorf("replay: Remove(2) did not complete after Resume")
	}
	// The retry tally counts restarts in every build, -tags obsoff too.
	if r := s.RetryStats().Sub(retryBase); r.Restarts != 1 || r.EscalatedHead != 0 {
		return nil, fmt.Errorf("replay: retry tally %+v, want exactly 1 restart and no head escalation", r)
	}

	// Phase 2: failed updates complete wait-free past a parked insert.
	pause, err = fps.PauseAt(failpoint.SiteVBLTraverse, 4)
	if err != nil {
		return nil, err
	}
	go func() { done <- tracedOp(tr, 0, obs.OpInsert, 4, s.Insert) }()
	if err := pause.AwaitReached(replayPauseTimeout); err != nil {
		return nil, err
	}
	if tracedOp(tr, 1, obs.OpInsert, 3, s.Insert) {
		return nil, fmt.Errorf("replay: Insert(3) = true with 3 present")
	}
	pause.Resume()
	select {
	case ok := <-done:
		if ok {
			return nil, fmt.Errorf("replay: Insert(4) = true with 4 present")
		}
	case <-time.After(replayPauseTimeout):
		return nil, fmt.Errorf("replay: Insert(4) did not complete after Resume")
	}
	return initial, nil
}
