package harness

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"listset/internal/adapt"
	"listset/internal/obs"
	"listset/internal/shard"
	"listset/internal/workload"
)

// TestRunWithAdaptOnSharded runs a full adaptive cell end to end: a
// sharded set, a hotspot workload, and the controller alive across
// warm-up and measurement. The cell must complete, report a ticking
// controller, and surface everything in the JSON row.
func TestRunWithAdaptOnSharded(t *testing.T) {
	cfg := testConfig()
	cfg.Name = "sharded-map"
	cfg.Shards = 4
	cfg.New = func() Set {
		return shard.NewRange(4, 0, 4096, func() shard.Set { return &shardMapSet{m: map[int64]bool{}} })
	}
	cfg.Workload = workload.Config{
		UpdatePercent: 20, Range: 4096,
		Dist: workload.DistHotspot, HotLo: 0, HotWidth: 64,
	}
	cfg.Probes = obs.NewProbes()
	cfg.Adapt = &adapt.Config{Interval: 2 * time.Millisecond}
	cfg.Duration = 60 * time.Millisecond
	cfg.Warmup = 20 * time.Millisecond
	cfg.Runs = 1

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapt == nil {
		t.Fatal("adaptive cell produced no controller stats")
	}
	if res.Adapt.Ticks == 0 {
		t.Fatal("controller never ticked during the run")
	}
	if len(res.Adapt.FinalCeilings) != 4 {
		t.Fatalf("final ceilings = %v, want one per shard", res.Adapt.FinalCeilings)
	}
	rep := Report(res)
	if rep.Adapt == nil || rep.Adapt.Ticks != res.Adapt.Ticks {
		t.Fatal("JSON row dropped the adapt section")
	}
	if rep.Protocol.AdaptIntervalSec <= 0 {
		t.Fatalf("adapt_interval_s = %v, want positive", rep.Protocol.AdaptIntervalSec)
	}
	if rep.Workload.HotWidth != 64 || rep.Workload.Dist != workload.DistHotspot {
		t.Fatalf("workload row lost the hotspot shape: %+v", rep.Workload)
	}
}

// TestRunWithPhases drives a cell through the bursts schedule and
// checks the protocol row names the cycle.
func TestRunWithPhases(t *testing.T) {
	cfg := testConfig()
	base := workload.Config{UpdatePercent: 20, Range: 64}
	sched, err := workload.Preset("bursts", base, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = base
	cfg.Phases = sched
	cfg.Duration = 40 * time.Millisecond
	cfg.Runs = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() == 0 {
		t.Fatal("phased run counted no operations")
	}
	rep := Report(res)
	if !strings.Contains(rep.Protocol.Phases, "write-burst") {
		t.Fatalf("protocol phases = %q, want the cycle string", rep.Protocol.Phases)
	}
}

// TestValidateAdaptNeedsProbes pins the coupling: the controller's
// signals are the probe counters, so Adapt without Probes is a config
// error, not a silent no-op.
func TestValidateAdaptNeedsProbes(t *testing.T) {
	cfg := testConfig()
	cfg.Adapt = &adapt.Config{}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Adapt without Probes accepted")
	}
	cfg.Probes = obs.NewProbes()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Adapt with Probes rejected: %v", err)
	}
}

// TestValidatePhasesRangeCovered: a schedule drawing past the
// populated range is rejected up front.
func TestValidatePhasesRangeCovered(t *testing.T) {
	cfg := testConfig()
	sched, err := workload.NewSchedule([]workload.Phase{
		{Name: "wide", Dur: time.Millisecond, Cfg: workload.Config{UpdatePercent: 10, Range: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Phases = sched
	if err := cfg.Validate(); err == nil {
		t.Fatal("phase range beyond Workload.Range accepted")
	}
}

// shardMapSet is mapSet's shard.Set twin.
type shardMapSet struct {
	mu sync.Mutex
	m  map[int64]bool
}

func (s *shardMapSet) Insert(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[v] {
		return false
	}
	s.m[v] = true
	return true
}

func (s *shardMapSet) Remove(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m[v] {
		return false
	}
	delete(s.m, v)
	return true
}

func (s *shardMapSet) Contains(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[v]
}

func (s *shardMapSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *shardMapSet) Snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
