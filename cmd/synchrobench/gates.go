package main

// The gate driver: `synchrobench -gate <suite>` runs one suite of the
// table below, writes its reports to BENCH_<suite>.json and checks its
// gates. These are gates, not benchmarks: CI numbers are noise
// (EXPERIMENTS.md has the real protocol), so each gate asserts a
// structural claim with a wide margin.
//
// Each row runs in its own process, re-running this executable with the
// suite's common flags, the row's flags and -json, so the MemStats
// deltas and GC state stay per cell. Paired gates run interleaved
// best-of-3 with -quiet, never -json: -json attaches the probes, so it
// would time the enabled path instead of the disabled one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"listset/internal/harness"
)

// suite is one gate suite. Its common flags start every row, so a
// row's own flags override them (the flag package keeps the last).
type suite struct {
	common string
	rows   []row
	gates  []gate
	pairs  []pair
}

// row is one cell: the name gates look it up by, and its flags, where
// {dir} names the run's scratch directory.
type row struct{ name, flags string }

// cells maps each row's name to its decoded report.
type cells map[string]harness.JSONReport

// gate checks one claim over a suite's reports and returns its reading.
type gate struct {
	name  string
	check func(c cells) (reading string, ok bool)
}

// pair is a paired throughput gate: on one cell, the default build with
// testFlags must reach min × the baseline built with baseTags.
type pair struct {
	name, cell, baseTags, testFlags string
	base, test                      string // labels for the reading
	min                             float64
}

var suites = map[string]suite{
	// The full observability path (probes, latency sampling, tracing,
	// streaming, JSON report) over the paper's three protagonists, plus
	// the sharding and arena gates.
	"smoke": {
		common: "-threads 4 -update-ratio 20",
		rows: []row{
			{"vbl", "-impl vbl -range 2048 -duration 500ms -warmup 100ms -runs 1"},
			{"lazy", "-impl lazy -range 2048 -duration 500ms -warmup 100ms -runs 1"},
			{"harris", "-impl harris -range 2048 -duration 500ms -warmup 100ms -runs 1"},
			{"S=8", "-impl vbl-sharded -range 2048 -duration 500ms -warmup 100ms -runs 1 -shards 8"},
			{"flat", "-impl vbl -range 20000 -duration 900ms -warmup 300ms -runs 3"},
			{"S=1", "-impl vbl-sharded -range 20000 -duration 900ms -warmup 300ms -runs 3 -shards 1"},
			{"S=16", "-impl vbl-sharded -range 20000 -duration 900ms -warmup 300ms -runs 3 -shards 16"},
			{"gc", "-impl vbl -range 20000 -duration 900ms -warmup 300ms -runs 3 -update-ratio 100"},
			{"arena", "-impl vbl -range 20000 -duration 900ms -warmup 300ms -runs 3 -update-ratio 100 -arena"},
			{"traced", "-impl vbl -range 2048 -duration 500ms -warmup 100ms -runs 1 -trace {dir}/smoke.trace -stream 100ms"},
		},
		gates: []gate{
			{"schema", schema(true)},
			// The O(n/S) payoff, and the S=1 façade's routing cost.
			{"sharding", medians([]string{"flat", "S=1", "S=16"}, func(c cells, m []float64) (string, bool) {
				rel := math.Abs(m[1]-m[0]) / m[0]
				s1, s16 := c["S=1"].Shards, c["S=16"].Shards
				return fmt.Sprintf("S=16 %.1fx flat (want >= 3x), S=1 within %.1f%% (want <= 10%%), shards %d/%d",
					m[2]/m[0], 100*rel, s1, s16), m[2] >= 3*m[0] && rel <= 0.10 && s1 == 1 && s16 == 16
			})},
			// Same 100 %-update cell, so the MemStats deltas compare.
			{"arena alloc", func(c cells) (string, bool) {
				gc, ar := c["gc"].Mem.AllocsPerOp, c["arena"].Mem.AllocsPerOp
				return fmt.Sprintf("arena %.4f vs GC %.4f allocs/op (want GC > 0, arena <= 0.25x)", ar, gc),
					gc > 0 && ar <= 0.25*gc
			}},
			// The trace file itself is checked when the cell runs.
			{"timeseries", func(c cells) (string, bool) {
				n := len(c["traced"].Timeseries)
				return fmt.Sprintf("traced row streamed %d windows", n), n > 0
			}},
		},
		pairs: []pair{
			{name: "arena throughput", cell: "-impl vbl -range 20000 -threads 4 -update-ratio 100 -duration 600ms -warmup 200ms -runs 1",
				testFlags: "-arena", base: "GC", test: "arena", min: 0.95},
			// ≤ 2 % on a quiet machine (DESIGN.md §12), 15 % here.
			{name: "trace-overhead", cell: "-impl vbl -range 2048 -threads 4 -update-ratio 20 -duration 400ms -warmup 100ms -runs 1",
				baseTags: "obsoff", base: "obsoff", test: "disabled tracing", min: 0.85},
		},
	},
	// A batch of k keys walks the list once instead of k times, and the
	// batch plumbing itself costs nothing at k = 1.
	"batch": {
		common: "-threads 4 -range 20000 -update-ratio 100 -duration 900ms -warmup 300ms -runs 3",
		rows: []row{
			{"plain", "-impl vbl -batch 0"},
			{"batch=1", "-impl vbl -batch 1"},
			{"batch=64", "-impl vbl -batch 64"},
			{"scan", "-impl vbl -batch 0 -update-ratio 50 -scan 10 -scan-width 200"},
			{"zipf batch=8", "-impl vbl -batch 8 -dist zipf -theta 0.9"},
		},
		gates: []gate{
			{"schema", schema(false)},
			{"batch fields", func(c cells) (string, bool) {
				n, scans := c["batch=64"].Protocol.BatchSize, c["scan"].Counts.Scans
				return fmt.Sprintf("batch_size %d, %d scans", n, scans), n == 64 && scans > 0
			}},
			{"amortization", medians([]string{"plain", "batch=1", "batch=64"}, func(c cells, m []float64) (string, bool) {
				rel := math.Abs(m[1]-m[0]) / m[0]
				return fmt.Sprintf("batch=64 at %.1fx batch=1 (want >= 3x), batch=1 within %.1f%% of plain (want <= 10%%)",
					m[2]/m[1], 100*rel), m[2] >= 3*m[1] && rel <= 0.10
			})},
		},
	},
	// At range 2·10⁴ a list traversal averages ~5000 hops and a skip-list
	// descent ~30, so the sharded skip index strictly beats every list.
	"index": {
		common: "-threads 4 -range 20000 -update-ratio 20 -duration 700ms -warmup 200ms -runs 3",
		rows: []row{
			{"vbl", "-impl vbl"},
			{"lazy", "-impl lazy"},
			{"harris", "-impl harris"},
			{"vbl S=16", "-impl vbl -shards 16"},
			{"vbskip", "-impl vbskip"},
			{"vbskip arena", "-impl vbskip -arena"},
			{"vbskip S=16", "-impl vbskip -shards 16"},
			{"vbskip S=16 arena", "-impl vbskip -shards 16 -arena"},
			{"vbl S=16 2e5", "-impl vbl -shards 16 -range 200000"},
			{"vbskip S=16 2e5", "-impl vbskip -shards 16 -range 200000"},
		},
		gates: []gate{
			{"schema", schema(false)},
			{"dominance 2e4", func(c cells) (string, bool) {
				lists := []string{"vbl", "lazy", "harris", "vbl S=16"}
				m, err := c.medians(append(lists, "vbskip S=16", "vbskip S=16 arena")...)
				if err != nil {
					return err.Error(), false
				}
				best := 0
				for i := range lists {
					if m[i] > m[best] {
						best = i
					}
				}
				skip := math.Max(m[4], m[5])
				return fmt.Sprintf("sharded skip at %.1fx the best list, %s (want > 1x)", skip/m[best], lists[best]), skip > m[best]
			}},
			{"dominance 2e5", medians([]string{"vbl S=16 2e5", "vbskip S=16 2e5"}, func(c cells, m []float64) (string, bool) {
				return fmt.Sprintf("sharded skip at %.1fx sharded vbl (want > 1x)", m[1]/m[0]), m[1] > m[0]
			})},
		},
		pairs: []pair{
			// ≤ 2 % on a quiet machine (DESIGN.md §15), 15 % here.
			{name: "probe-overhead", cell: "-impl vbskip -range 20000 -threads 4 -update-ratio 20 -duration 400ms -warmup 100ms -runs 1",
				baseTags: "obsoff", base: "obsoff", test: "disabled probes", min: 0.85},
		},
	},
}

// schema checks that every report carries the schema tag and the events
// section, and with latency the sampled latencies too.
func schema(latency bool) func(c cells) (string, bool) {
	return func(c cells) (string, bool) {
		for name, r := range c {
			if r.Schema != harness.ReportSchema || r.Events == nil || latency && r.LatencyNS == nil {
				return fmt.Sprintf("row %q lacks the schema tag, events or latency_ns", name), false
			}
		}
		return fmt.Sprintf("%d reports", len(c)), true
	}
}

// medians wraps a gate over the named rows' median throughputs, in
// order; it fails the gate on a missing row or a non-positive median.
func medians(names []string, f func(c cells, m []float64) (string, bool)) func(c cells) (string, bool) {
	return func(c cells) (string, bool) {
		m, err := c.medians(names...)
		if err != nil {
			return err.Error(), false
		}
		return f(c, m)
	}
}

// medians returns the named rows' median throughputs, refusing a
// missing row or a non-positive median.
func (c cells) medians(names ...string) ([]float64, error) {
	m := make([]float64, len(names))
	for i, name := range names {
		if m[i] = c[name].Throughput.Median; m[i] <= 0 {
			return nil, fmt.Errorf("row %q has no positive median throughput", name)
		}
	}
	return m, nil
}

// gateSuites lists the suite names.
func gateSuites() []string {
	var names []string
	for name := range suites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runGate runs one suite and returns the exit code: 0 when every gate
// holds, 1 when one fails, 2 when a cell cannot run.
func runGate(name string) int {
	s, ok := suites[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "synchrobench: unknown gate suite %q (want one of %s)\n", name, strings.Join(gateSuites(), ", "))
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "synchrobench:", err)
		return 2
	}
	dir, err := os.MkdirTemp("", "synchrobench-gate-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "synchrobench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	out := "BENCH_" + name + ".json"
	c, err := s.runCells(self, dir, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 2
	}
	code := 0
	judge := func(gate, reading string, ok bool) {
		if !ok {
			fmt.Fprintf(os.Stderr, "%s: %s gate FAILED — %s\n", name, gate, reading)
			code = 1
			return
		}
		fmt.Printf("%s: %s gate ok — %s\n", name, gate, reading)
	}
	for _, g := range s.gates {
		reading, ok := g.check(c)
		judge(g.name, reading, ok)
	}
	for _, p := range s.pairs {
		reading, ok := p.run(dir, self)
		judge(p.name, reading, ok)
	}
	fmt.Printf("%s: wrote %s (%d reports)\n", name, out, len(s.rows))
	return code
}

// args is a row's full flag list, common flags first.
func (s suite) args(r row, dir string) []string {
	return strings.Fields(strings.ReplaceAll(s.common+" "+r.flags, "{dir}", dir))
}

// runCells runs every row in its own process of bin and writes the
// reports, verbatim and in row order, as one JSON array to out.
func (s suite) runCells(bin, dir, out string) (cells, error) {
	c := make(cells, len(s.rows))
	buf := bytes.NewBufferString("[\n")
	for i, r := range s.rows {
		args := append(s.args(r, dir), "-json")
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		js, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("row %q: %v", r.name, err)
		}
		var rep harness.JSONReport
		if err := json.Unmarshal(js, &rep); err != nil {
			return nil, fmt.Errorf("row %q: decoding its report: %v", r.name, err)
		}
		// A cell that asks for a trace must leave a non-empty one.
		for j, a := range args[:len(args)-1] {
			if a != "-trace" {
				continue
			}
			if st, err := os.Stat(args[j+1]); err != nil || st.Size() == 0 {
				return nil, fmt.Errorf("row %q left no trace at %s", r.name, args[j+1])
			}
		}
		c[r.name] = rep
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(js)
	}
	buf.WriteString("]\n")
	return c, os.WriteFile(out, buf.Bytes(), 0o644)
}

// build builds synchrobench with tags into dir and returns its path.
func build(dir, tags string) (string, error) {
	path := filepath.Join(dir, "synchrobench-"+tags)
	args := []string{"build", "-o", path, "-tags", tags, "listset/cmd/synchrobench"}
	if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	return path, nil
}

// run builds p's baseline into dir and runs p's cell on it and on the
// default build self, interleaved and keeping each side's best of 3, so
// a background hiccup hits both sides rather than biasing one.
func (p pair) run(dir, self string) (string, bool) {
	baseBin := self
	if p.baseTags != "" {
		var err error
		if baseBin, err = build(dir, p.baseTags); err != nil {
			return err.Error(), false
		}
	}
	baseArgs := strings.Fields(p.cell + " -quiet")
	testArgs := strings.Fields(p.cell + " -quiet " + p.testFlags)
	var base, test float64
	for i := 0; i < 3; i++ {
		b, err := quietRun(baseBin, baseArgs)
		if err != nil {
			return err.Error(), false
		}
		t, err := quietRun(self, testArgs)
		if err != nil {
			return err.Error(), false
		}
		base, test = math.Max(base, b), math.Max(test, t)
	}
	return p.judge(base, test)
}

// judge checks the tested side's best against min × the baseline's.
func (p pair) judge(base, test float64) (string, bool) {
	return fmt.Sprintf("%s at %.2fx %s, best-of-3 interleaved %.0f vs %.0f ops/s (want >= %.2fx)",
		p.test, test/base, p.base, test, base, p.min), base > 0 && test >= p.min*base
}

// quietRun runs one -quiet cell and returns its throughput: the line
// reads "impl threads workload mean", so the mean is the last field.
func quietRun(bin string, args []string) (float64, error) {
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		return 0, fmt.Errorf("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
	}
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return 0, fmt.Errorf("%s printed no throughput", filepath.Base(bin))
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}
