package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"listset/internal/adapt"
	"listset/internal/harness"
	"listset/internal/obs/trace"
)

// TestGateTable checks the gate table without running a benchmark:
// every row and paired cell parses with synchrobench's own flags and
// builds its set, every gate passes on a canned report set that
// satisfies it and fails on edits that violate it, and every paired
// gate holds at its threshold ratio and fails below it.
func TestGateTable(t *testing.T) {
	parse := func(what string, args []string) {
		var o options
		fs := flag.NewFlagSet("synchrobench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o.register(fs)
		if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
			t.Errorf("%s: %q: %v, stray args %q", what, args, err, fs.Args())
			return
		}
		_, _, wl, _, err := o.resolve()
		if err == nil {
			err = wl.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	for _, name := range gateSuites() {
		s := suites[name]
		seen := map[string]bool{}
		for _, r := range s.rows {
			if seen[r.name] {
				t.Errorf("%s: duplicate row %q", name, r.name)
			}
			seen[r.name] = true
			parse(name+"/"+r.name, append(s.args(r, t.TempDir()), "-json"))
		}
		for _, p := range s.pairs {
			parse(name+"/"+p.name, strings.Fields(p.cell+" -quiet "+p.testFlags))
			if _, ok := p.judge(1e6, p.min*1e6); !ok {
				t.Errorf("%s/%s fails at its threshold", name, p.name)
			}
			if _, ok := p.judge(1e6, p.min*1e6-1); ok {
				t.Errorf("%s/%s passes below its threshold", name, p.name)
			}
		}
		for _, g := range s.gates {
			if reading, ok := g.check(canned(name)); !ok {
				t.Errorf("%s/%s fails on the canned set: %s", name, g.name, reading)
			}
			violated := false
			for _, tc := range gateCases {
				if tc.suite != name || tc.gate != g.name {
					continue
				}
				c := canned(name)
				tc.edit(c)
				if reading, ok := g.check(c); ok != tc.ok {
					t.Errorf("%s/%s, %s: got ok=%v (%s)", name, g.name, tc.what, ok, reading)
				}
				violated = violated || !tc.ok
			}
			if !violated {
				t.Errorf("%s/%s: no canned report set violates it", name, g.name)
			}
		}
	}
}

// canned returns a report set for suite that satisfies every gate.
func canned(suite string) cells {
	c := cells{}
	for _, r := range suites[suite].rows {
		c[r.name] = harness.JSONReport{
			Schema:     harness.ReportSchema,
			Events:     map[string]uint64{},
			LatencyNS:  map[string]harness.JSONLatency{"contains": {P999: 1000}},
			Throughput: harness.JSONThroughput{Median: 1e6},
		}
	}
	switch suite {
	case "smoke":
		edit(c, "S=1", func(r *harness.JSONReport) { r.Shards = 1 })
		edit(c, "S=16", func(r *harness.JSONReport) { r.Shards, r.Throughput.Median = 16, 5e6 })
		edit(c, "gc", func(r *harness.JSONReport) { r.Mem.AllocsPerOp = 1 })
		edit(c, "arena", func(r *harness.JSONReport) { r.Mem.AllocsPerOp = 0.01 })
		edit(c, "traced", func(r *harness.JSONReport) { r.Timeseries = make([]trace.StreamRow, 1) })
	case "batch":
		edit(c, "batch=64", func(r *harness.JSONReport) { r.Protocol.BatchSize, r.Throughput.Median = 64, 2e7 })
		edit(c, "scan", func(r *harness.JSONReport) { r.Counts.Scans = 10 })
	case "adapt":
		for _, name := range []string{"uniform/adaptive", "seam/adaptive", "zipf/adaptive"} {
			edit(c, name, func(r *harness.JSONReport) { r.Adapt = &adapt.Stats{Ticks: 14} })
		}
	case "index":
		median("vbskip S=16", 8e6)(c)
		median("vbskip S=16 arena", 8e6)(c)
		median("vbskip S=16 2e5", 1e7)(c)
	}
	return c
}

// edit applies f to the report of row name.
func edit(c cells, name string, f func(r *harness.JSONReport)) {
	r := c[name]
	f(&r)
	c[name] = r
}

// median returns an edit that sets a row's median throughput.
func median(name string, v float64) func(c cells) {
	return func(c cells) { edit(c, name, func(r *harness.JSONReport) { r.Throughput.Median = v }) }
}

// gateCases edit the canned set of a suite across one gate's
// thresholds.
var gateCases = []struct {
	suite, gate, what string
	edit              func(c cells)
	ok                bool
}{
	{"smoke", "schema", "wrong schema", func(c cells) { edit(c, "vbl", func(r *harness.JSONReport) { r.Schema = "listset/bench/v0" }) }, false},
	{"smoke", "schema", "no events", func(c cells) { edit(c, "lazy", func(r *harness.JSONReport) { r.Events = nil }) }, false},
	{"smoke", "schema", "no latency", func(c cells) { edit(c, "harris", func(r *harness.JSONReport) { r.LatencyNS = nil }) }, false},
	{"smoke", "sharding", "S=16 at exactly 3x", median("S=16", 3e6), true},
	{"smoke", "sharding", "S=16 below 3x", median("S=16", 2.99e6), false},
	{"smoke", "sharding", "S=1 at 10%", median("S=1", 1.1e6), true},
	{"smoke", "sharding", "S=1 past 10%", median("S=1", 0.89e6), false},
	{"smoke", "sharding", "S=16 unsharded", func(c cells) { edit(c, "S=16", func(r *harness.JSONReport) { r.Shards = 0 }) }, false},
	{"smoke", "sharding", "flat missing", func(c cells) { delete(c, "flat") }, false},
	{"smoke", "arena alloc", "arena at 0.25x", func(c cells) { edit(c, "arena", func(r *harness.JSONReport) { r.Mem.AllocsPerOp = 0.25 }) }, true},
	{"smoke", "arena alloc", "arena past 0.25x", func(c cells) { edit(c, "arena", func(r *harness.JSONReport) { r.Mem.AllocsPerOp = 0.26 }) }, false},
	{"smoke", "arena alloc", "GC without allocs", func(c cells) { edit(c, "gc", func(r *harness.JSONReport) { r.Mem.AllocsPerOp = 0 }) }, false},
	{"smoke", "timeseries", "no windows", func(c cells) { edit(c, "traced", func(r *harness.JSONReport) { r.Timeseries = nil }) }, false},

	{"batch", "schema", "no events", func(c cells) { edit(c, "scan", func(r *harness.JSONReport) { r.Events = nil }) }, false},
	{"batch", "schema", "latency not required", func(c cells) { edit(c, "scan", func(r *harness.JSONReport) { r.LatencyNS = nil }) }, true},
	{"batch", "batch fields", "no batch size", func(c cells) { edit(c, "batch=64", func(r *harness.JSONReport) { r.Protocol.BatchSize = 0 }) }, false},
	{"batch", "batch fields", "no scans", func(c cells) { edit(c, "scan", func(r *harness.JSONReport) { r.Counts.Scans = 0 }) }, false},
	{"batch", "amortization", "batch=64 at exactly 3x", median("batch=64", 3e6), true},
	{"batch", "amortization", "batch=64 below 3x", median("batch=64", 2.99e6), false},
	{"batch", "amortization", "batch=1 past 10%", median("batch=1", 1.11e6), false},

	{"adapt", "schema", "no events", func(c cells) { edit(c, "seam", func(r *harness.JSONReport) { r.Events = nil }) }, false},
	{"adapt", "adapt section", "missing section", func(c cells) { edit(c, "zipf/adaptive", func(r *harness.JSONReport) { r.Adapt = nil }) }, false},
	{"adapt", "adapt section", "controller never ticked", func(c cells) { edit(c, "seam/adaptive", func(r *harness.JSONReport) { r.Adapt.Ticks = 0 }) }, false},
	{"adapt", "adapt section", "one tick suffices", func(c cells) { edit(c, "uniform/adaptive", func(r *harness.JSONReport) { r.Adapt.Ticks = 1 }) }, true},
	{"adapt", "uniform tax", "tax at 5%", median("uniform/adaptive", 0.95e6), true},
	{"adapt", "uniform tax", "tax past 5%", median("uniform/adaptive", 0.94e6), false},

	{"index", "schema", "wrong schema", func(c cells) { edit(c, "vbskip", func(r *harness.JSONReport) { r.Schema = "" }) }, false},
	{"index", "dominance 2e4", "arena row carries it", median("vbskip S=16", 1), true},
	{"index", "dominance 2e4", "tie with sharded vbl", median("vbl S=16", 8e6), false},
	{"index", "dominance 2e4", "harris ahead", median("harris", 9e6), false},
	{"index", "dominance 2e5", "tie", median("vbskip S=16 2e5", 1e6), false},
}
