package listset

import (
	"testing"

	"listset/internal/failpoint"
	"listset/internal/lincheck"
	"listset/internal/obs"
	"listset/internal/obs/trace"
	"listset/internal/schedule"
)

// roundTrip captures a replay and lifts it both ways: the operation
// history through the linearizability checker, the checkpointed spans
// through schedule.Lift under the given algorithm.
func roundTrip(t *testing.T, replay func(*trace.Tracer) ([]int64, error)) ([]int64, *trace.Capture, schedule.Schedule) {
	t.Helper()
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: the replays pin their schedules with failpoint pauses")
	}
	tr := trace.NewTracer(2, 1<<10)
	initial, err := replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Snapshot()
	if c.Drops != 0 {
		t.Fatalf("replay capture dropped %d records; ring too small", c.Drops)
	}

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	init := make(map[int64]bool, len(initial))
	for _, k := range initial {
		init[k] = true
	}
	if v := lincheck.Check(h, init); v != nil {
		t.Fatalf("reconstructed history not linearizable: %v", v)
	}

	ops, err := c.ScheduleOps()
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Lift(schedule.AlgVBL, initial, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !schedule.Accepts(schedule.AlgVBL, s) {
		t.Fatalf("lifted schedule not VBL-accepted: %v", s)
	}
	return initial, c, s
}

// TestFigure2TraceRoundTrip replays Figure 2 under the flight recorder
// and checks the full audit chain: the capture's history is
// linearizable, and its checkpointed spans lift to a VBL-accepted
// schedule that Lazy REJECTS — the separation the figure exists to
// show, recovered from a real execution's trace.
func TestFigure2TraceRoundTrip(t *testing.T) {
	_, c, s := roundTrip(t, ReplayFigure2)

	// The parked insert must carry both phase constraints: its reads
	// closed at the failpoint fire, its writes opened at the release.
	ops, err := c.ScheduleOps()
	if err != nil {
		t.Fatal(err)
	}
	var constrained int
	for _, op := range ops {
		if op.ReadsBefore > 0 && op.WritesAfter > 0 {
			constrained++
			if op.Spec.Kind != schedule.OpInsert || op.Spec.Arg != 2 {
				t.Errorf("phase constraints on %v, want insert(2)", op.Spec)
			}
		}
	}
	if constrained != 1 {
		t.Fatalf("ops with both phase constraints = %d, want 1", constrained)
	}

	if schedule.Accepts(schedule.AlgLazy, s) {
		t.Fatal("Figure 2 schedule lifted from the trace must be Lazy-rejected")
	}
}

// TestFigure3TraceRoundTrip replays Figure 3 (both phases, four ops)
// under the flight recorder: the history checks out, and the spans —
// including the remove whose window was invalidated mid-flight, which
// restarts and therefore keeps only its WritesAfter constraint — lift
// to a VBL-accepted schedule.
func TestFigure3TraceRoundTrip(t *testing.T) {
	if !obs.Compiled {
		t.Skip("built with -tags obsoff: the restarted remove's spans need the restart events the probes emit")
	}
	_, c, _ := roundTrip(t, ReplayFigure3)

	ops, err := c.ScheduleOps()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4 {
		t.Fatalf("reconstructed ops = %d, want 4", len(ops))
	}
	// The paused remove restarted once after its release, so its reads
	// are NOT all pre-fire: ReadsBefore must have been dropped while
	// WritesAfter survives.
	for _, op := range ops {
		if op.Spec.Kind == schedule.OpRemove && op.Spec.Arg == 2 {
			if op.WritesAfter == 0 {
				t.Error("paused remove lost its WritesAfter constraint")
			}
			if op.ReadsBefore != 0 {
				t.Error("restarted remove must not claim ReadsBefore: its re-read postdates the fire")
			}
		}
	}
}
