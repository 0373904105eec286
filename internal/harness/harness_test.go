package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"listset/internal/shard"
	"listset/internal/skiplist"
	"listset/internal/workload"
)

// mapSet is a mutex-protected map set, a trivially correct Set for
// harness tests.
type mapSet struct {
	mu sync.Mutex
	m  map[int64]bool
}

func newMapSet() Set { return &mapSet{m: map[int64]bool{}} }

func (s *mapSet) Insert(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[v] {
		return false
	}
	s.m[v] = true
	return true
}

func (s *mapSet) Remove(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m[v] {
		return false
	}
	delete(s.m, v)
	return true
}

func (s *mapSet) Contains(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[v]
}

func testConfig() Config {
	return Config{
		Name:     "map",
		New:      newMapSet,
		Threads:  4,
		Workload: workload.Config{UpdatePercent: 20, Range: 64},
		Duration: 30 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Runs:     2,
		Seed:     1,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.New = nil },
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Runs = 0 },
		func(c *Config) { c.Workload.Range = 0 },
		func(c *Config) { c.Workload.UpdatePercent = 120 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunProducesThroughputs(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Throughputs) != cfg.Runs {
		t.Fatalf("got %d throughputs, want %d", len(res.Throughputs), cfg.Runs)
	}
	for i, tput := range res.Throughputs {
		if tput <= 0 {
			t.Fatalf("run %d throughput = %v", i, tput)
		}
	}
	if res.Counts.Total() == 0 {
		t.Fatal("no operations counted")
	}
	if res.Summary.N != cfg.Runs {
		t.Fatalf("summary over %d runs, want %d", res.Summary.N, cfg.Runs)
	}
	// Prepopulation put roughly half the range in.
	if res.InitialSize < 16 || res.InitialSize > 48 {
		t.Fatalf("initial size %d implausible for range 64", res.InitialSize)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}

// TestCountsMixPlausible checks that the op mix the harness measures
// matches the workload: with 20% updates, contains ops dominate, and at
// steady state insert and remove successes are balanced.
func TestCountsMixPlausible(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 80 * time.Millisecond
	cfg.Runs = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	total := float64(c.Total())
	containsFrac := float64(c.ContainsHit+c.ContainsMiss) / total
	if containsFrac < 0.7 || containsFrac > 0.9 {
		t.Fatalf("contains fraction %.2f, want about 0.8", containsFrac)
	}
	// Steady state: inserts that succeed ~= removes that succeed (the set
	// size is stationary around range/2).
	ins, rem := float64(c.InsertOK), float64(c.RemoveOK)
	if ins == 0 || rem == 0 {
		t.Fatal("no effective updates measured")
	}
	if ratio := ins / rem; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("effective insert/remove ratio %.2f, want about 1", ratio)
	}
	if eur := c.EffectiveUpdateRatio(); eur <= 0 || eur >= 0.2 {
		t.Fatalf("effective update ratio %.3f, want in (0, 0.2)", eur)
	}
}

func TestCountsTotalAndAdd(t *testing.T) {
	a := Counts{ContainsHit: 1, ContainsMiss: 2, InsertOK: 3, InsertFail: 4, RemoveOK: 5, RemoveFail: 6}
	if a.Total() != 21 {
		t.Fatalf("Total = %d, want 21", a.Total())
	}
	var b Counts
	b.add(a)
	b.add(a)
	if b.Total() != 42 {
		t.Fatalf("after two adds Total = %d, want 42", b.Total())
	}
	if (Counts{}).EffectiveUpdateRatio() != 0 {
		t.Fatal("EffectiveUpdateRatio of zero Counts != 0")
	}
}

func TestRunSweepShapesAndReports(t *testing.T) {
	s := Sweep{
		Title:      "test sweep",
		Candidates: []Candidate{{Name: "map", New: newMapSet}, {Name: "map2", New: newMapSet}},
		Threads:    []int{1, 2},
		Cell: Config{
			Workload: workload.Config{UpdatePercent: 50, Range: 32},
			Duration: 15 * time.Millisecond,
			Warmup:   0,
			Runs:     1,
			Seed:     2,
		},
	}
	res, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 || len(res.Results[0]) != 2 {
		t.Fatalf("result shape %dx%d, want 2x2", len(res.Results), len(res.Results[0]))
	}
	if got := res.Series(0); len(got) != 2 || got[0] <= 0 {
		t.Fatalf("Series(0) = %v", got)
	}
	if res.CandidateIndex("map2") != 1 || res.CandidateIndex("nope") != -1 {
		t.Fatal("CandidateIndex wrong")
	}

	var table bytes.Buffer
	res.WriteTable(&table)
	out := table.String()
	for _, want := range []string{"test sweep", "threads", "map", "map2", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}

	var csv bytes.Buffer
	res.WriteCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + 2 candidates × 2 threads × 1 run
	if len(lines) != 1+4 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "title,workload,impl,threads,run,") {
		t.Fatalf("CSV header = %q", lines[0])
	}

	var sp bytes.Buffer
	res.WriteSpeedups(&sp, "map")
	if !strings.Contains(sp.String(), "speedup of map over:") {
		t.Fatalf("speedups output = %q", sp.String())
	}
	var spBad bytes.Buffer
	res.WriteSpeedups(&spBad, "nope")
	if !strings.Contains(spBad.String(), "unknown reference") {
		t.Fatal("missing unknown-reference diagnostic")
	}
}

func TestSweepProgressWriter(t *testing.T) {
	var progress bytes.Buffer
	s := Sweep{
		Title:      "progress",
		Candidates: []Candidate{{Name: "map", New: newMapSet}},
		Threads:    []int{1},
		Cell: Config{
			Workload: workload.Config{UpdatePercent: 0, Range: 16},
			Duration: 10 * time.Millisecond,
			Runs:     1,
		},
		Progress: &progress,
	}
	if _, err := RunSweep(s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "map") {
		t.Fatalf("progress output = %q", progress.String())
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain string escaped")
	}
	if csvEscape(`a,b`) != `"a,b"` {
		t.Fatal("comma not quoted")
	}
	if csvEscape(`a"b`) != `"a""b"` {
		t.Fatal("quote not doubled")
	}
}

// TestReportsReadShardsAndArenaOffTheSet: a cell's shard count and
// arena flag are read off the set New builds, in Report and through a
// sweep. Three requested shards build four (the partitioner rounds up
// to a power of two), so a restated request would read 3.
func TestReportsReadShardsAndArenaOffTheSet(t *testing.T) {
	build := func(arena bool) func() Set {
		return func() Set {
			return shard.NewRange(3, 0, 64, func() shard.Set {
				if arena {
					return skiplist.NewVBArena()
				}
				return skiplist.NewVB()
			})
		}
	}
	cfg := testConfig()
	cfg.Threads, cfg.Runs = 1, 1
	for _, c := range []struct {
		name   string
		new    func() Set
		shards int
		arena  bool
	}{
		{"vbskip-arena-s3", build(true), 4, true},
		{"vbskip-s3", build(false), 4, false},
		{"map", newMapSet, 0, false},
	} {
		cfg.Name, cfg.New = c.name, c.new
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := RunSweep(Sweep{Title: c.name, Cell: cfg, Candidates: []Candidate{{Name: c.name, New: c.new}}, Threads: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range append([]JSONReport{Report(res)}, sw.JSONReports()...) {
			if rep.Shards != c.shards || rep.Arena != c.arena {
				t.Errorf("%s: report says shards %d arena %v, want %d and %v", c.name, rep.Shards, rep.Arena, c.shards, c.arena)
			}
		}
	}
}
