package harness

import (
	"fmt"
	"io"
	"strings"

	"listset/internal/stats"
)

// humanThroughput renders ops/sec compactly.
func humanThroughput(v float64) string { return stats.HumanCount(v) }

// WriteTable renders a sweep as an aligned text table: one row per
// thread count, one column per candidate, entries mean±rel% throughput.
func (r SweepResult) WriteTable(w io.Writer) {
	c := r.Sweep.Cell
	fmt.Fprintf(w, "%s  (workload %s, %v x%d runs after %v warm-up)\n",
		r.Sweep.Title, c.Workload.String(), c.Duration, c.Runs, c.Warmup)
	// Header.
	fmt.Fprintf(w, "%8s", "threads")
	for _, c := range r.Sweep.Candidates {
		fmt.Fprintf(w, "  %16s", c.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s", strings.Repeat("-", 7))
	for range r.Sweep.Candidates {
		fmt.Fprintf(w, "  %16s", strings.Repeat("-", 16))
	}
	fmt.Fprintln(w)
	for j, th := range r.Sweep.Threads {
		fmt.Fprintf(w, "%8d", th)
		for i := range r.Sweep.Candidates {
			res := r.Results[i][j]
			cell := fmt.Sprintf("%s ±%2.0f%%", humanThroughput(res.Summary.Mean), 100*res.Summary.RelStdDev())
			fmt.Fprintf(w, "  %16s", cell)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders the sweep as CSV: title, workload, candidate, threads,
// run index, throughput — one row per measured run, ready for plotting.
func (r SweepResult) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "title,workload,impl,threads,run,throughput_ops_per_sec")
	for i, c := range r.Sweep.Candidates {
		for j, th := range r.Sweep.Threads {
			for k, tput := range r.Results[i][j].Throughputs {
				fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.0f\n",
					csvEscape(r.Sweep.Title), r.Sweep.Cell.Workload.String(), c.Name, th, k, tput)
			}
		}
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteSpeedups writes, for each thread count, the factor by which the
// reference candidate's mean throughput exceeds each other candidate's —
// the "VBL outperforms Lazy by 1.6x" style numbers in the paper.
func (r SweepResult) WriteSpeedups(w io.Writer, reference string) {
	ref := r.CandidateIndex(reference)
	if ref < 0 {
		fmt.Fprintf(w, "speedups: unknown reference %q\n", reference)
		return
	}
	fmt.Fprintf(w, "speedup of %s over:\n", reference)
	fmt.Fprintf(w, "%8s", "threads")
	for i, c := range r.Sweep.Candidates {
		if i == ref {
			continue
		}
		fmt.Fprintf(w, "  %12s", c.Name)
	}
	fmt.Fprintln(w)
	for j, th := range r.Sweep.Threads {
		fmt.Fprintf(w, "%8d", th)
		refMean := r.Results[ref][j].Summary.Mean
		for i := range r.Sweep.Candidates {
			if i == ref {
				continue
			}
			fmt.Fprintf(w, "  %11.2fx", stats.Speedup(refMean, r.Results[i][j].Summary.Mean))
		}
		fmt.Fprintln(w)
	}
}
