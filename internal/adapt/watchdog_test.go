package adapt

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"listset/internal/failpoint"
	"listset/internal/harness"
	"listset/internal/obs"
	"listset/internal/shard"
	"listset/internal/skiplist"
	"listset/internal/workload"
)

// skipCell is a small harness cell on the winning index: a 16-shard VB
// skip list over [0, 20000), 50 % updates, 2 workers.
func skipCell() harness.Config {
	return harness.Config{
		Name:     "vbskip-sharded",
		New:      func() harness.Set { return shard.NewRange(16, 0, 20000, func() shard.Set { return skiplist.NewVB() }) },
		Threads:  2,
		Workload: workload.Config{UpdatePercent: 50, Range: 20000},
		Duration: 50 * time.Millisecond,
		Runs:     1,
		Seed:     1,
	}
}

// TestSheddingTripsAndRecovers: the watchdog, not a controller, is what
// ends a livelock. A probability-1 level-0 failure on the sharded skip
// index livelocks every update; with the ladder at budget 2 the run
// must fail, naming the watchdog. The same cell without the storm runs
// clean under the same watchdog.
func TestSheddingTripsAndRecovers(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("built with -tags nofailpoint: no storm to livelock the cell with")
	}
	cfg := skipCell()
	cfg.Workload.UpdatePercent = 100
	cfg.Duration = 500 * time.Millisecond
	cfg.RetryBudget = 2
	cfg.Watchdog = 100 * time.Millisecond
	cfg.Chaos = []failpoint.Scenario{{Site: failpoint.SiteSkipLockNextAt, Action: failpoint.ActFail}}
	_, err := harness.Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("livelocked cell: err = %v, want a watchdog error", err)
	}
	cfg.Chaos = nil
	cfg.Duration = 50 * time.Millisecond
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatalf("storm-free cell under the same watchdog: %v", err)
	}
	if res.Counts.Total() == 0 {
		t.Fatal("storm-free cell completed no operations")
	}
}

// TestRebalanceTriggerAndCooldown: on a fault-free uniform cell the
// ladder stays in its dead band. The run completes under an armed
// watchdog, escalations stay a vanishing share of the operations, and
// the report carries the budget with no controller section.
func TestRebalanceTriggerAndCooldown(t *testing.T) {
	cfg := skipCell()
	cfg.RetryBudget = 32
	cfg.Watchdog = 5 * time.Second
	cfg.Probes = obs.NewProbes()
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(res.Counts.Total())
	if esc := res.Events[obs.EvRetryEscalateHead] + res.Events[obs.EvRetryEscalateBackoff]; esc*1000 > total {
		t.Fatalf("%d escalations over %d uniform ops, want under 0.1 %%", esc, total)
	}
	js, err := json.Marshal(harness.Report(res))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"retry_budget":32`) || strings.Contains(string(js), `"adapt`) {
		t.Fatalf("report lacks the budget or carries a controller field: %s", js)
	}
}

// TestStartStop: each drive starts and stops its own watchdog. A cell
// whose warm-up and measured drives each outlast the deadline, repeated
// over two runs, must never see it fire while every worker makes
// progress.
func TestStartStop(t *testing.T) {
	cfg := skipCell()
	cfg.Watchdog = 200 * time.Millisecond
	cfg.Warmup = 250 * time.Millisecond
	cfg.Duration = 400 * time.Millisecond
	cfg.Runs = 2
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatalf("healthy cell tripped the watchdog: %v", err)
	}
	if len(res.Throughputs) != 2 {
		t.Fatalf("%d runs reported, want 2", len(res.Throughputs))
	}
}
