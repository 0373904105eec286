package harness

import (
	"strings"
	"testing"
	"time"

	"listset/internal/batch"
	"listset/internal/core"
	"listset/internal/obs"
	"listset/internal/workload"
)

func batchConfig(batch int) Config {
	return Config{
		Name:      "vbl",
		New:       func() Set { return core.New() },
		Threads:   4,
		Workload:  workload.Config{UpdatePercent: 50, Range: 256},
		Duration:  30 * time.Millisecond,
		Warmup:    5 * time.Millisecond,
		Runs:      2,
		Seed:      1,
		BatchSize: batch,
	}
}

// TestBatchedModeCountsPerKey checks the central accounting invariant:
// a batched run's tallies are per key, so the per-call step count times
// the batch size bounds Total from below (scans aside, every step lands
// exactly BatchSize tallies).
func TestBatchedModeCountsPerKey(t *testing.T) {
	res, err := Run(batchConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	total := res.Counts.Total()
	if total == 0 {
		t.Fatal("batched run completed no operations")
	}
	if total%16 != 0 {
		t.Errorf("total %d not a multiple of the batch size 16; accounting is per-call, not per-key?", total)
	}
	if res.Counts.InsertOK == 0 || res.Counts.RemoveOK == 0 || res.Counts.ContainsHit == 0 {
		t.Errorf("batched mix missing outcomes: %+v", res.Counts)
	}
}

// TestBatchedModeFallback drives a set with no batch surface: the
// harness must fall back to an equivalent per-key loop, not fail.
func TestBatchedModeFallback(t *testing.T) {
	cfg := testConfig()
	cfg.BatchSize = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() == 0 {
		t.Fatal("fallback batched run completed no operations")
	}
	if res.Counts.Total()%8 != 0 {
		t.Errorf("fallback total %d not a multiple of 8", res.Counts.Total())
	}
}

// TestBatchTallyDuplicateDraws pins the batched tally on a fixed draw
// stream with repeated keys: the batch surface applies each distinct
// key once, so a repeat counts as a failure of its op's kind, and a
// native set and a set served by the per-key fallback tally alike.
func TestBatchTallyDuplicateDraws(t *testing.T) {
	steps := []struct {
		op workload.Op
		ks []int64
	}{
		{workload.Contains, []int64{5, 5, 7}},
		{workload.Insert, []int64{3, 3, 9}},
		{workload.Remove, []int64{5, 5, 9, 11}},
	}
	want := Counts{ContainsHit: 1, ContainsMiss: 2, InsertOK: 2, InsertFail: 1, RemoveOK: 2, RemoveFail: 2}
	for name, set := range map[string]Set{"native": core.New(), "fallback": newMapSet()} {
		set.Insert(5)
		bs := batch.AsBatcher(set)
		var c Counts
		for _, st := range steps {
			applyBatch(bs, st.op, st.ks, &c)
		}
		if c != want {
			t.Errorf("%s: Counts = %+v, want %+v", name, c, want)
		}
	}
}

// TestScanWorkload drives a scan-bearing mix against the native VBL
// and checks scans complete, return keys, and land in the scan latency
// histogram.
func TestScanWorkload(t *testing.T) {
	cfg := batchConfig(0)
	cfg.Workload.ScanPercent = 20
	cfg.Workload.ScanWidth = 64
	cfg.LatencySampleEvery = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Scans == 0 {
		t.Fatal("no scans completed with ScanPercent=20")
	}
	if res.Counts.ScanKeys == 0 {
		t.Error("scans over a half-full range returned no keys")
	}
	// Width 64 over a half-full 256-key range: a scan returns ~32 keys.
	if avg := float64(res.Counts.ScanKeys) / float64(res.Counts.Scans); avg < 8 || avg > 64 {
		t.Errorf("average scan returned %.1f keys, want roughly 32", avg)
	}
	if got := res.Latency.Percentiles(obs.OpScan).Count; got == 0 {
		t.Error("no scan latency samples with sampling on")
	}
}

// TestScanWorkloadNeedsRangeSet checks the harness rejects scan
// workloads on sets without a native scan surface instead of silently
// measuring something else.
func TestScanWorkloadNeedsRangeSet(t *testing.T) {
	cfg := testConfig() // mapSet: no RangeScan
	cfg.Workload.ScanPercent = 10
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("scan workload on a scanless set did not error")
	}
	if !strings.Contains(err.Error(), "RangeScan") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestBatchSizeOneMatchesSemantics drives batch=1 (single-key batches
// through the batch entry points) and checks the run behaves like a
// point run: outcomes of every kind, per-key totals.
func TestBatchSizeOneMatchesSemantics(t *testing.T) {
	res, err := Run(batchConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() == 0 {
		t.Fatal("batch=1 run completed no operations")
	}
	if res.Counts.InsertOK == 0 || res.Counts.RemoveOK == 0 {
		t.Errorf("batch=1 mix missing outcomes: %+v", res.Counts)
	}
}

func TestBatchConfigValidate(t *testing.T) {
	cfg := testConfig()
	cfg.BatchSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative BatchSize accepted")
	}
}

// TestZipfWorkloadRuns drives the Zipfian distribution end to end
// through the harness.
func TestZipfWorkloadRuns(t *testing.T) {
	cfg := batchConfig(8)
	cfg.Workload.Dist = workload.DistZipf
	cfg.Workload.Theta = 0.9
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() == 0 {
		t.Fatal("zipf run completed no operations")
	}
}
