package listset

import (
	"testing"
	"time"

	"listset/internal/core"
	"listset/internal/failpoint"
	"listset/internal/obs"
)

// pauseTimeout bounds every wait on a parked goroutine; well past any
// scheduler hiccup, far under the package test timeout.
const pauseTimeout = 5 * time.Second

// TestFigure2ScheduleVBLAccepts replays the paper's Figure 2: a
// schedule with an unsuccessful insert running concurrently with a
// successful one, which the Lazy list REJECTS — Lazy's failed insert
// still acquires the window locks, so it cannot complete while another
// update holds them — and which VBL ACCEPTS, because a failed insert
// returns from the wait-free traversal without touching a single lock.
//
// The schedule, pinned with a one-shot failpoint pause:
//
//	T1: Insert(2) traverses {1}, then parks at vbl-lock-next-at,
//	    i.e. mid-update, about to lock node 1    (step 1)
//	T2: Insert(1) runs to completion → false     (step 2)  ← the step
//	    Lazy would block on T1's window
//	T1: resumes, links 2 → true                  (step 3)
//
// VBL must accept the interleaving with ZERO restarts: T2 never
// conflicts, T1 never revalidates.
func TestFigure2ScheduleVBLAccepts(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no pause to pin the schedule with")
	}
	s := core.New()
	fps := failpoint.NewSet()
	probes := obs.NewProbes()
	s.SetFailpoints(fps)
	s.SetProbes(probes)
	if !s.Insert(1) {
		t.Fatal("seeding Insert(1) failed")
	}

	pause, err := fps.PauseAt(failpoint.SiteVBLLockNextAt, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- s.Insert(2) }() // step 1: parks pre-lock
	if err := pause.AwaitReached(pauseTimeout); err != nil {
		t.Fatal(err)
	}

	// Step 2: with T1 parked mid-update, the failed insert completes
	// inline. If this call could block (as in Lazy) the test would hang.
	if s.Insert(1) {
		t.Fatal("Insert(1) = true with 1 present")
	}

	pause.Resume() // step 3
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Insert(2) = false on a set without 2")
		}
	case <-time.After(pauseTimeout):
		t.Fatal("Insert(2) did not complete after Resume")
	}

	if snap := s.Snapshot(); len(snap) != 2 || snap[0] != 1 || snap[1] != 2 {
		t.Fatalf("final Snapshot = %v, want [1 2]", snap)
	}
	events := probes.Snapshot()
	if n := events[obs.EvRestartPrev] + events[obs.EvRestartHead]; n != 0 {
		t.Fatalf("VBL restarted %d times accepting the Figure 2 schedule; want 0", n)
	}
}

// TestFigure3ScheduleVBLAccepts replays the paper's Figure 3 in two
// phases against VBL.
//
// Phase 1 — the interleaving Harris-Michael REJECTS outright: a
// remove's window changes under it between traversal and commit.
// Harris's commit is an identity CAS on prev's next pointer, so ANY
// change — even one that leaves the removed value's presence intact —
// loses the CAS and forces a restart from head. VBL's value-aware lock
// re-validates by VALUE and restarts locally from prev:
//
//	T1: Remove(2) traverses {2,3,4}, parks at vbl-lock-next-at-value
//	    with window (head, 2)                       (step 1)
//	T2: Insert(1) links 1 between head and 2 → true (step 2)
//	T1: resumes; the value validation sees head.next = 1 ≠ 2, restarts
//	    ONCE from prev, re-finds window (1, 2), unlinks 2 → true
//
// Exactly one prev-restart and no head-restart may occur.
//
// Phase 2 — the Figure 2 flavour of the same schedule on the remove
// path: with an insert parked mid-operation (at its vbl-traverse
// anchor), failed updates of other keys run to completion wait-free.
func TestFigure3ScheduleVBLAccepts(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no pause to pin the schedule with")
	}
	s := core.New()
	fps := failpoint.NewSet()
	probes := obs.NewProbes()
	s.SetFailpoints(fps)
	s.SetProbes(probes)
	for _, v := range []int64{2, 3, 4} {
		if !s.Insert(v) {
			t.Fatalf("seeding Insert(%d) failed", v)
		}
	}

	// Phase 1.
	base, retryBase := probes.Snapshot(), s.RetryStats()
	pause, err := fps.PauseAt(failpoint.SiteVBLLockNextAtValue, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- s.Remove(2) }() // step 1: parks pre-value-lock
	if err := pause.AwaitReached(pauseTimeout); err != nil {
		t.Fatal(err)
	}
	if !s.Insert(1) { // step 2: invalidates the remover's window
		t.Fatal("Insert(1) = false with 1 absent")
	}
	pause.Resume()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Remove(2) = false with 2 present")
		}
	case <-time.After(pauseTimeout):
		t.Fatal("Remove(2) did not complete after Resume")
	}
	// The ladder's tally counts restarts in every build; the probes,
	// which -tags obsoff compiles out, also tell prev from head.
	if r := s.RetryStats().Sub(retryBase); r.Restarts != 1 || r.EscalatedHead != 0 {
		t.Fatalf("retry tally accepting the Figure 3 schedule = %+v, want exactly 1 restart and no head escalation", r)
	}
	events := probes.Snapshot().Sub(base)
	if got := events[obs.EvRestartPrev]; obs.Compiled && got != 1 {
		t.Fatalf("prev-restarts accepting the Figure 3 schedule = %d, want exactly 1", got)
	}
	if got := events[obs.EvRestartHead]; got != 0 {
		t.Fatalf("head-restarts = %d; VBL must recover locally, not from head", got)
	}

	// Phase 2.
	pause, err = fps.PauseAt(failpoint.SiteVBLTraverse, 4)
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- s.Insert(4) }() // parks at the attempt anchor
	if err := pause.AwaitReached(pauseTimeout); err != nil {
		t.Fatal(err)
	}
	if s.Insert(3) { // completes wait-free alongside the parked insert
		t.Fatal("Insert(3) = true with 3 present")
	}
	pause.Resume()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Insert(4) = true with 4 present")
		}
	case <-time.After(pauseTimeout):
		t.Fatal("Insert(4) did not complete after Resume")
	}

	want := []int64{1, 3, 4}
	snap := s.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("final Snapshot = %v, want %v", snap, want)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("final Snapshot = %v, want %v", snap, want)
		}
	}
}
