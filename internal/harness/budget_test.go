package harness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/shard"
	"listset/internal/skiplist"
	"listset/internal/workload"
)

// The TestRunWithAdaptOnSharded, TestRunWithPhases and TestValidate*
// names in this file are historical: they once covered the adaptive
// controller and the phase schedules. They now cover the static retry
// ladder on the sharded index and the validation of the hotspot cells
// that replaced them.

// TestRunWithAdaptOnSharded runs a static-budget cell end to end on the
// winning index: a 16-shard VB skip list, a hotspot on one shard seam,
// an injected 50 % level-0 validation storm, retry budget 2 and the
// watchdog armed. The cell must complete without the watchdog firing,
// the ladder must escalate, and the JSON row must carry the budget and
// the retry section and no controller fields.
func TestRunWithAdaptOnSharded(t *testing.T) {
	cfg := testConfig()
	cfg.Name = "vbskip-sharded"
	cfg.Shards = 16
	cfg.New = func() Set {
		return shard.NewRange(16, 0, 20000, func() shard.Set { return skiplist.NewVB() })
	}
	cfg.Workload = workload.Config{
		UpdatePercent: 60, Range: 20000,
		Dist: workload.DistHotspot, HotLo: 10208, HotWidth: 64, HotPercent: 100,
	}
	cfg.Chaos = []failpoint.Scenario{{Site: failpoint.SiteSkipLockNextAt, Action: failpoint.ActFail, Probability: 0.5, Seed: 1}}
	cfg.RetryBudget = 2
	cfg.Watchdog = 5 * time.Second
	cfg.Probes = obs.NewProbes()
	cfg.Duration = 60 * time.Millisecond
	cfg.Runs = 1

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasRetry || res.Retry.EscalatedBackoff == 0 {
		t.Fatalf("retry = %+v (has ladder %v), want backoff escalations under the storm", res.Retry, res.HasRetry)
	}
	if obs.Compiled && res.Events[obs.EvRetryEscalateBackoff] == 0 {
		t.Fatal("no retry_escalate_backoff event under the storm")
	}
	rep := Report(res)
	if rep.Protocol.RetryBudget != 2 || rep.Retry == nil || rep.Retry.EscalatedBackoff != res.Retry.EscalatedBackoff {
		t.Fatalf("JSON row lost the budget or the retry section: %+v, %+v", rep.Protocol, rep.Retry)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{`"adapt"`, `"adapt_interval_s"`, `"phases"`, `"adapt_`} {
		if strings.Contains(string(js), k) {
			t.Fatalf("JSON row carries the controller-era key %s", k)
		}
	}
}

// TestRunWithPhases drives a hotspot cell and checks that the report
// row and the workload string carry its shape.
func TestRunWithPhases(t *testing.T) {
	cfg := testConfig()
	cfg.Workload = workload.Config{UpdatePercent: 20, Range: 4096, Dist: workload.DistHotspot, HotLo: 0, HotWidth: 64}
	cfg.Duration = 40 * time.Millisecond
	cfg.Runs = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() == 0 {
		t.Fatal("hotspot run counted no operations")
	}
	rep := Report(res)
	if rep.Workload.Dist != workload.DistHotspot || rep.Workload.HotWidth != 64 {
		t.Fatalf("workload row lost the hotspot shape: %+v", rep.Workload)
	}
	if s := cfg.Workload.String(); !strings.Contains(s, "hot=90%@[0,64)") {
		t.Fatalf("workload string = %q, want the hot window", s)
	}
}

// TestValidateAdaptNeedsProbes: the static ladder needs no probes, so a
// retry budget and a watchdog validate on their own; negative values
// of either are rejected.
func TestValidateAdaptNeedsProbes(t *testing.T) {
	cfg := testConfig()
	cfg.RetryBudget = 4
	cfg.Watchdog = time.Second
	if err := cfg.Validate(); err != nil {
		t.Fatalf("static budget without probes rejected: %v", err)
	}
	for _, f := range []func(*Config){
		func(c *Config) { c.RetryBudget = -1 },
		func(c *Config) { c.Watchdog = -time.Second },
	} {
		bad := cfg
		f(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("negative budget or watchdog accepted: %+v", bad)
		}
	}
}

// TestValidatePhasesRangeCovered: a hot window drawing past the
// populated range is rejected up front.
func TestValidatePhasesRangeCovered(t *testing.T) {
	cfg := testConfig()
	cfg.Workload = workload.Config{UpdatePercent: 10, Range: 64, Dist: workload.DistHotspot, HotLo: 32, HotWidth: 64}
	if err := cfg.Validate(); err == nil {
		t.Fatal("hot window beyond Workload.Range accepted")
	}
	cfg.Workload.HotWidth = 32
	if err := cfg.Validate(); err != nil {
		t.Fatalf("hot window inside Workload.Range rejected: %v", err)
	}
}
