package listset

import (
	"testing"

	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/obs/trace"
	"listset/internal/schedule"
)

// roundTrip audits a replay through AuditReplay: no dropped records,
// a linearizable history, and spans that lift to a VBL-accepted
// schedule.
func roundTrip(t *testing.T, replay func(*trace.Tracer) ([]int64, error)) (*trace.Capture, schedule.Schedule) {
	t.Helper()
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: the replays pin their schedules with failpoint pauses")
	}
	c, s, err := AuditReplay(replay)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

// TestFigure2TraceRoundTrip replays Figure 2 under the flight recorder
// and checks the full audit chain: the capture's history is
// linearizable, and its checkpointed spans lift to a VBL-accepted
// schedule that Lazy REJECTS — the separation the figure exists to
// show, recovered from a real execution's trace.
func TestFigure2TraceRoundTrip(t *testing.T) {
	c, s := roundTrip(t, ReplayFigure2)

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
	c, _ := roundTrip(t, ReplayFigure3)

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
