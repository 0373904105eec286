package harness

import (
	"fmt"
	"io"

	"listset/internal/obs"
)

// Candidate names one implementation entered into a sweep.
type Candidate struct {
	Name string
	New  func() Set
}

// Sweep describes a grid of benchmark cells: every candidate × every
// thread count, each a copy of one Config template. This is the unit
// from which the paper's figures are assembled (each panel of Figure 4
// is one Sweep).
type Sweep struct {
	Title string
	// Cell is the template every cell copies: the workload and the
	// measurement protocol. RunSweep fills in each cell's Name, New and
	// Threads, and its Probes when Observe is set.
	Cell       Config
	Candidates []Candidate
	Threads    []int
	// Progress, if non-nil, receives a line per completed cell.
	Progress io.Writer
	// Observe gives every cell a fresh obs.Probes so per-cell event
	// counts land in each Result.Events (cells run sequentially, so a
	// shared counter set would conflate them).
	Observe bool
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
			cfg := s.Cell
			cfg.Name, cfg.New, cfg.Threads = cand.Name, cand.New, th
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
