package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"listset/internal/core"
	"listset/internal/obs"
	"listset/internal/workload"
)

// obsConfig drives the instrumented VBL so probe events actually fire.
func obsConfig() Config {
	cfg := Config{
		Name:               "vbl",
		New:                func() Set { return core.New() },
		Threads:            4,
		Workload:           workload.Config{UpdatePercent: 50, Range: 64},
		Duration:           30 * time.Millisecond,
		Warmup:             5 * time.Millisecond,
		Runs:               2,
		Seed:               1,
		Probes:             obs.NewProbes(),
		LatencySampleEvery: 4,
	}
	return cfg
}

func TestRunWithProbesAndLatency(t *testing.T) {
	res, err := Run(obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Compiled {
		t.Skip("built with -tags obsoff: no events to assert on")
	}
	// 50% updates over a 64-key range must log deletes; physical unlinks
	// accompany every VBL remove.
	if res.Events[obs.EvLogicalDelete] == 0 {
		t.Error("no logical deletes counted over an update-heavy run")
	}
	if res.Events[obs.EvPhysicalUnlink] != res.Events[obs.EvLogicalDelete] {
		t.Errorf("unlinks = %d, deletes = %d; VBL removes unlink inline",
			res.Events[obs.EvPhysicalUnlink], res.Events[obs.EvLogicalDelete])
	}
	if res.Counts.RemoveOK <= 0 {
		t.Fatal("no successful removes — workload misconfigured")
	}
	// Events are measured-interval deltas: warm-up removes must not be
	// included, so deletes cannot exceed the counted removes by much
	// (Snapshot is racy only within a run's own tail).
	if got, want := res.Events[obs.EvLogicalDelete], uint64(res.Counts.RemoveOK); got > want {
		t.Errorf("logical deletes %d > counted successful removes %d: warm-up leaked into the delta", got, want)
	}
	if res.Latency == nil {
		t.Fatal("Latency nil with LatencySampleEvery set")
	}
	if res.Latency.Count() == 0 {
		t.Error("no latency samples with LatencySampleEvery=4")
	}
	for _, op := range []obs.OpKind{obs.OpContains, obs.OpInsert, obs.OpRemove} {
		if res.Latency.Percentiles(op).Count == 0 {
			t.Errorf("no %s samples over a mixed workload", op)
		}
	}
	if res.Latency.Percentiles(obs.OpScan).Count != 0 {
		t.Error("scan samples recorded by a scan-free workload")
	}
}

func TestRunWithoutProbesZero(t *testing.T) {
	cfg := testConfig() // mapSet: not Instrumented, no probes
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != (obs.Snapshot{}) {
		t.Errorf("Events = %v without probes, want all zero", res.Events)
	}
	if res.Latency != nil {
		t.Error("Latency non-nil without sampling")
	}
}

func TestSampleMask(t *testing.T) {
	cases := []struct {
		every int
		mask  uint64
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 3}, {4, 3}, {5, 7}, {64, 63}, {100, 127},
	}
	for _, c := range cases {
		if got := sampleMask(c.every); got != c.mask {
			t.Errorf("sampleMask(%d) = %d, want %d", c.every, got, c.mask)
		}
	}
}

// TestJSONReportSchema pins the report layout: committed BENCH_*.json
// files and downstream tooling parse these exact keys.
func TestJSONReportSchema(t *testing.T) {
	res, err := Run(obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if doc["schema"] != ReportSchema {
		t.Fatalf("schema = %v, want %q", doc["schema"], ReportSchema)
	}
	for _, key := range []string{"impl", "threads", "workload", "protocol", "initial_size", "throughput", "counts", "events", "latency_ns"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report missing top-level key %q", key)
		}
	}
	events, ok := doc["events"].(map[string]any)
	if !ok {
		t.Fatalf("events is %T, want object", doc["events"])
	}
	if len(events) != int(obs.NumEvents) {
		t.Errorf("events has %d keys, want %d (zeros must be present)", len(events), obs.NumEvents)
	}
	lat, ok := doc["latency_ns"].(map[string]any)
	if !ok {
		t.Fatalf("latency_ns is %T, want object", doc["latency_ns"])
	}
	for _, op := range []string{"contains", "insert", "remove"} {
		entry, ok := lat[op].(map[string]any)
		if !ok {
			t.Fatalf("latency_ns[%q] is %T, want object", op, lat[op])
		}
		for _, key := range []string{"count", "p50", "p90", "p99", "p999"} {
			if _, ok := entry[key]; !ok {
				t.Errorf("latency_ns[%q] missing %q", op, key)
			}
		}
	}
	counts, ok := doc["counts"].(map[string]any)
	if !ok {
		t.Fatalf("counts is %T, want object", doc["counts"])
	}
	for _, key := range []string{"contains_hit", "contains_miss", "insert_ok", "insert_fail", "remove_ok", "remove_fail", "total", "effective_update_ratio"} {
		if _, ok := counts[key]; !ok {
			t.Errorf("counts missing %q", key)
		}
	}
}

// TestSweepObserve checks that Observe gives each cell its own probes,
// so event counts are per cell rather than conflated across the grid.
func TestSweepObserve(t *testing.T) {
	s := Sweep{
		Title:      "observe",
		Candidates: []Candidate{{Name: "vbl", New: func() Set { return core.New() }}},
		Threads:    []int{1, 2},
		Cell: Config{
			Workload: workload.Config{UpdatePercent: 100, Range: 32},
			Duration: 20 * time.Millisecond,
			Runs:     1,
			Seed:     7,
		},
		Observe: true,
	}
	res, err := RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Compiled {
		t.Skip("built with -tags obsoff: no events to assert on")
	}
	for j, cell := range res.Results[0] {
		if cell.Events[obs.EvLogicalDelete] == 0 {
			t.Errorf("cell %d: no deletes under a 100%%-update workload", j)
		}
		if cell.Config.Probes == nil {
			t.Errorf("cell %d: Observe did not install probes", j)
		}
	}
	if res.Results[0][0].Config.Probes == res.Results[0][1].Config.Probes {
		t.Error("cells share one Probes; Observe must give each its own")
	}
	reps := res.JSONReports()
	if len(reps) != 2 {
		t.Fatalf("JSONReports = %d entries, want 2", len(reps))
	}
}
