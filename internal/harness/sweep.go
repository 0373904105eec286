package harness

import (
	"fmt"
	"io"
	"time"

	"listset/internal/failpoint"
	"listset/internal/obs"
	"listset/internal/workload"
)

// Candidate names one implementation entered into a sweep. Shards is
// the shard count of the partitioned façade New constructs (0 =
// unsharded); it flows into each cell's Config and report unchanged.
type Candidate struct {
	Name   string
	New    func() Set
	Shards int
}

// Sweep describes a grid of benchmark cells: every candidate × every
// thread count, for one workload. This is the unit from which the
// paper's figures are assembled (each panel of Figure 4 is one Sweep).
type Sweep struct {
	Title      string
	Candidates []Candidate
	Threads    []int
	Workload   workload.Config
	Duration   time.Duration
	Warmup     time.Duration
	Runs       int
	Seed       int64
	// Progress, if non-nil, receives a line per completed cell.
	Progress io.Writer
	// Observe gives every cell a fresh obs.Probes so per-cell event
	// counts land in each Result.Events (cells run sequentially, so a
	// shared counter set would conflate them).
	Observe bool
	// LatencySampleEvery forwards to Config.LatencySampleEvery.
	LatencySampleEvery int
	// Chaos, RetryBudget, Watchdog and BatchSize forward to the
	// matching Config fields of every cell.
	Chaos       []failpoint.Scenario
	RetryBudget int
	Watchdog    time.Duration
	BatchSize   int
}

// SweepResult holds one sweep's results indexed [candidate][thread].
type SweepResult struct {
	Sweep   Sweep
	Results [][]Result
}

// RunSweep executes every cell of the sweep sequentially (cells must not
// overlap in time — they'd contend for the same cores).
func RunSweep(s Sweep) (SweepResult, error) {
	out := SweepResult{Sweep: s}
	for _, cand := range s.Candidates {
		var row []Result
		for _, th := range s.Threads {
			cfg := Config{
				Name:               cand.Name,
				New:                cand.New,
				Shards:             cand.Shards,
				Threads:            th,
				Workload:           s.Workload,
				Duration:           s.Duration,
				Warmup:             s.Warmup,
				Runs:               s.Runs,
				Seed:               s.Seed,
				LatencySampleEvery: s.LatencySampleEvery,
				Chaos:              s.Chaos,
				RetryBudget:        s.RetryBudget,
				Watchdog:           s.Watchdog,
				BatchSize:          s.BatchSize,
			}
			if s.Observe {
				cfg.Probes = obs.NewProbes()
			}
			res, err := Run(cfg)
			if err != nil {
				return SweepResult{}, fmt.Errorf("sweep %q cell (%s, %d threads): %w", s.Title, cand.Name, th, err)
			}
			if s.Progress != nil {
				fmt.Fprintf(s.Progress, "  %-14s %2d threads  %s ops/s\n",
					cand.Name, th, humanThroughput(res.Summary.Mean))
			}
			row = append(row, res)
		}
		out.Results = append(out.Results, row)
	}
	return out, nil
}

// Series returns the mean-throughput series for candidate i, one value
// per thread count.
func (r SweepResult) Series(i int) []float64 {
	out := make([]float64, len(r.Results[i]))
	for j, res := range r.Results[i] {
		out[j] = res.Summary.Mean
	}
	return out
}

// CandidateIndex returns the row index of the named candidate, or -1.
func (r SweepResult) CandidateIndex(name string) int {
	for i, c := range r.Sweep.Candidates {
		if c.Name == name {
			return i
		}
	}
	return -1
}
