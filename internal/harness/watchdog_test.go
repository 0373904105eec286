package harness

import (
	"strings"
	"testing"
	"time"

	"listset/internal/core"
	"listset/internal/failpoint"
	"listset/internal/skiplist"
	"listset/internal/workload"
)

// TestWatchdogFiresOnSeededLivelock seeds a genuine livelock — a
// probability-1 injected failure of VBL's identity validation, so every
// update spins through restarts forever (the retry ladder escalates and
// backs off, but escalation cannot outrun an always-failing site) —
// and asserts the watchdog converts it into a run error instead of a
// hung process. The fire path disarms the failpoints, which is what
// lets the stalled workers drain and this test return at all.
func TestWatchdogFiresOnSeededLivelock(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no failure to livelock the run with")
	}
	cfg := Config{
		Name:     "vbl-livelock",
		New:      func() Set { return core.New() },
		Threads:  2,
		Workload: workload.Config{UpdatePercent: 100, Range: 64},
		Duration: 500 * time.Millisecond,
		Runs:     1,
		Seed:     1,
		Chaos: []failpoint.Scenario{
			{Site: failpoint.SiteVBLLockNextAt, Action: failpoint.ActFail},
		},
		RetryBudget: 2,
		Watchdog:    100 * time.Millisecond,
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("probability-1 validation failure did not trip the watchdog")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error does not name the watchdog: %v", err)
	}
}

// TestWatchdogQuietOnHealthyRun pins the other half of the contract:
// an armed watchdog on a fault-free run must stay silent, and the
// retry ladder's stats must surface in the result.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := Config{
		Name:        "vbl",
		New:         func() Set { return core.New() },
		Threads:     4,
		Workload:    workload.Config{UpdatePercent: 50, Range: 128},
		Duration:    100 * time.Millisecond,
		Runs:        1,
		Seed:        2,
		RetryBudget: 8,
		Watchdog:    5 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if !res.HasRetry {
		t.Fatal("VBL exposes a retry ladder but HasRetry is false")
	}
	if res.Counts.Total() == 0 {
		t.Fatal("healthy run completed no operations")
	}
}

// TestChaosArmsAfterPopulate proves a hostile scenario cannot livelock
// pre-population: keys are inserted before arming, so a probability-1
// insert-validation failure leaves the populated size intact and only
// the measured phase (here emptied of stall risk by the watchdog)
// feels the faults.
func TestChaosArmsAfterPopulate(t *testing.T) {
	cfg := Config{
		Name:     "vbl-chaos-populate",
		New:      func() Set { return core.New() },
		Threads:  1,
		Workload: workload.Config{UpdatePercent: 0, Range: 256},
		Duration: 50 * time.Millisecond,
		Runs:     1,
		Seed:     3,
		Chaos: []failpoint.Scenario{
			{Site: failpoint.SiteVBLLockNextAt, Action: failpoint.ActFail},
		},
		Watchdog: 5 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("read-only chaos run failed: %v", err)
	}
	if res.InitialSize == 0 {
		t.Fatal("pre-population inserted nothing — the chaos arm hit the setup phase")
	}
}

// TestWatchdogEndsIntervalEarly: once the watchdog fires, its onFire
// has stopped the workers, so the measured interval must end then and
// not sit out the rest of Duration. A probability-1 failure of the VB
// skip list's level-0 validation livelocks every update; with a 100 ms
// deadline and a 2 s interval, Run must return the watchdog error well
// inside one second.
func TestWatchdogEndsIntervalEarly(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no failure to livelock the run with")
	}
	cfg := Config{
		Name:     "vbskip-livelock",
		New:      func() Set { return skiplist.NewVB() },
		Threads:  2,
		Workload: workload.Config{UpdatePercent: 100, Range: 64},
		Duration: 2 * time.Second,
		Runs:     1,
		Seed:     4,
		Chaos: []failpoint.Scenario{
			{Site: failpoint.SiteSkipLockNextAt, Action: failpoint.ActFail},
		},
		Watchdog: 100 * time.Millisecond,
	}
	begin := time.Now()
	_, err := Run(cfg)
	took := time.Since(begin)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want the watchdog error, got %v", err)
	}
	if took >= time.Second {
		t.Fatalf("Run took %v after the watchdog fired, want < 1s", took)
	}
}
