package harness

import (
	"encoding/json"
	"io"

	"listset/internal/obs"
	"listset/internal/obs/trace"
)

// ReportSchema identifies the JSON layout emitted by this package.
// Bump the suffix when a field is renamed or removed; adding fields is
// compatible and does not bump it.
const ReportSchema = "listset/bench/v1"

// JSONReport is the machine-readable form of one Result, stable enough
// to be committed as BENCH_*.json and diffed across revisions. All maps
// carry every key every time (zeros included), so consumers need no
// presence checks.
type JSONReport struct {
	Schema  string `json:"schema"`
	Impl    string `json:"impl"`
	Threads int    `json:"threads"`
	// Shards is the shard count of the partitioned façade (0 =
	// unsharded). Added for the sharded VBL; a new field, so the
	// schema string is unchanged.
	Shards int `json:"shards"`
	// Arena reports whether the cell ran with arena-backed node
	// lifetimes (internal/mem). A new field; schema string unchanged.
	Arena    bool         `json:"arena"`
	Workload JSONWorkload `json:"workload"`
	Protocol JSONProtocol `json:"protocol"`
	// InitialSize is the pre-population size of the last run.
	InitialSize int            `json:"initial_size"`
	Throughput  JSONThroughput `json:"throughput"`
	Counts      JSONCounts     `json:"counts"`
	// Events maps stable event names (obs.Event.String) to counts over
	// the measured intervals; nil when the run had no probes attached.
	Events map[string]uint64 `json:"events,omitempty"`
	// LatencyNS maps op kind (contains/insert/remove) to sampled
	// percentiles in nanoseconds; nil when sampling was off.
	LatencyNS map[string]JSONLatency `json:"latency_ns,omitempty"`
	// Retry is the bounded-retry ladder's aggregate over the set's
	// lifetime; nil when the implementation has no retry ladder. A new
	// optional field, so the schema string is unchanged.
	Retry *JSONRetry `json:"retry,omitempty"`
	// Mem is the process-wide heap accounting over the measured
	// intervals. A new field; schema string unchanged.
	Mem JSONMem `json:"mem"`
	// Timeseries holds the interval-metrics windows (one row per
	// streaming tick over the measured drives); nil unless the run
	// streamed. A new optional field; schema string unchanged.
	Timeseries []trace.StreamRow `json:"timeseries,omitempty"`
}

// JSONMem is the runtime.MemStats delta summed over the measured
// intervals (population and warm-up excluded). Process-wide: compare
// across cells only when each cell ran in its own process (the smoke
// scripts and cmd/synchrobench do).
type JSONMem struct {
	Mallocs     uint64  `json:"mallocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// JSONWorkload mirrors workload.Config. The distribution and scan
// fields are new and omitted at their defaults, so pre-existing
// reports parse and diff unchanged (schema string unchanged).
type JSONWorkload struct {
	UpdatePercent int     `json:"update_percent"`
	Range         int64   `json:"range"`
	Dist          string  `json:"dist,omitempty"`
	Theta         float64 `json:"theta,omitempty"`
	ScanPercent   int     `json:"scan_percent,omitempty"`
	ScanWidth     int64   `json:"scan_width,omitempty"`
	HotPercent    int     `json:"hot_percent,omitempty"`
	HotLo         int64   `json:"hot_lo,omitempty"`
	HotWidth      int64   `json:"hot_width,omitempty"`
}

// JSONProtocol records the measurement protocol of the run.
type JSONProtocol struct {
	DurationSec float64 `json:"duration_s"`
	WarmupSec   float64 `json:"warmup_s"`
	Runs        int     `json:"runs"`
	Seed        int64   `json:"seed"`
	// SampleEvery is the latency sampling period (0 = off).
	SampleEvery int `json:"sample_every"`
	// Chaos lists the armed failpoint scenarios in their flag syntax
	// (site:action[:probability][:delay]); empty when the run was
	// fault-free. New optional fields: schema string unchanged.
	Chaos []string `json:"chaos,omitempty"`
	// RetryBudget is the bounded-retry budget K (0 = unbounded).
	RetryBudget int `json:"retry_budget,omitempty"`
	// WatchdogSec is the liveness watchdog deadline (0 = off).
	WatchdogSec float64 `json:"watchdog_s,omitempty"`
	// BatchSize is the batched-mode batch size (0 = per-key mode).
	// Counts stay per-key either way; see harness.Config.BatchSize.
	BatchSize int `json:"batch_size,omitempty"`
}

// JSONRetry mirrors obs.RetryStats.
type JSONRetry struct {
	Ops              uint64 `json:"ops"`
	Restarts         uint64 `json:"restarts"`
	EscalatedHead    uint64 `json:"escalated_head"`
	EscalatedBackoff uint64 `json:"escalated_backoff"`
	MaxRestarts      uint64 `json:"max_restarts"`
}

// JSONThroughput summarizes per-run throughputs in ops/sec.
type JSONThroughput struct {
	Mean   float64   `json:"mean"`
	StdDev float64   `json:"stddev"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Median float64   `json:"median"`
	Runs   []float64 `json:"runs"`
}

// JSONCounts mirrors Counts plus the derived totals.
type JSONCounts struct {
	ContainsHit          int64   `json:"contains_hit"`
	ContainsMiss         int64   `json:"contains_miss"`
	InsertOK             int64   `json:"insert_ok"`
	InsertFail           int64   `json:"insert_fail"`
	RemoveOK             int64   `json:"remove_ok"`
	RemoveFail           int64   `json:"remove_fail"`
	Scans                int64   `json:"scans,omitempty"`
	ScanKeys             int64   `json:"scan_keys,omitempty"`
	Total                int64   `json:"total"`
	EffectiveUpdateRatio float64 `json:"effective_update_ratio"`
}

// JSONLatency is one op kind's sampled latency distribution.
type JSONLatency struct {
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
}

// Report converts a Result into its JSON form.
func Report(res Result) JSONReport {
	cfg := res.Config
	rep := JSONReport{
		Schema:  ReportSchema,
		Impl:    cfg.Name,
		Threads: cfg.Threads,
		Shards:  cfg.Shards,
		Arena:   cfg.Arena,
		Workload: JSONWorkload{
			UpdatePercent: cfg.Workload.UpdatePercent,
			Range:         cfg.Workload.Range,
			Dist:          cfg.Workload.Dist,
			Theta:         cfg.Workload.Theta,
			ScanPercent:   cfg.Workload.ScanPercent,
			ScanWidth:     cfg.Workload.ScanWidth,
			HotPercent:    cfg.Workload.HotPercent,
			HotLo:         cfg.Workload.HotLo,
			HotWidth:      cfg.Workload.HotWidth,
		},
		Protocol: JSONProtocol{
			DurationSec: cfg.Duration.Seconds(),
			WarmupSec:   cfg.Warmup.Seconds(),
			Runs:        cfg.Runs,
			Seed:        cfg.Seed,
			SampleEvery: cfg.LatencySampleEvery,
			RetryBudget: cfg.RetryBudget,
			WatchdogSec: cfg.Watchdog.Seconds(),
			BatchSize:   cfg.BatchSize,
		},
		InitialSize: res.InitialSize,
		Throughput: JSONThroughput{
			Mean:   res.Summary.Mean,
			StdDev: res.Summary.StdDev,
			Min:    res.Summary.Min,
			Max:    res.Summary.Max,
			Median: res.Summary.Median,
			Runs:   res.Throughputs,
		},
		Counts: JSONCounts{
			ContainsHit:          res.Counts.ContainsHit,
			ContainsMiss:         res.Counts.ContainsMiss,
			InsertOK:             res.Counts.InsertOK,
			InsertFail:           res.Counts.InsertFail,
			RemoveOK:             res.Counts.RemoveOK,
			RemoveFail:           res.Counts.RemoveFail,
			Scans:                res.Counts.Scans,
			ScanKeys:             res.Counts.ScanKeys,
			Total:                res.Counts.Total(),
			EffectiveUpdateRatio: res.Counts.EffectiveUpdateRatio(),
		},
	}
	rep.Mem = JSONMem{
		Mallocs:     res.Mallocs,
		AllocBytes:  res.AllocBytes,
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.BytesPerOp(),
	}
	for _, sc := range cfg.Chaos {
		rep.Protocol.Chaos = append(rep.Protocol.Chaos, sc.String())
	}
	if res.HasRetry {
		rep.Retry = &JSONRetry{
			Ops:              res.Retry.Ops,
			Restarts:         res.Retry.Restarts,
			EscalatedHead:    res.Retry.EscalatedHead,
			EscalatedBackoff: res.Retry.EscalatedBackoff,
			MaxRestarts:      res.Retry.MaxRestarts,
		}
	}
	if cfg.Probes != nil {
		rep.Events = res.Events.Map()
	}
	rep.Timeseries = res.Timeseries
	if res.Latency != nil {
		rep.LatencyNS = make(map[string]JSONLatency, int(obs.NumOps))
		for op := obs.OpKind(0); op < obs.NumOps; op++ {
			p := res.Latency.Percentiles(op)
			rep.LatencyNS[op.String()] = JSONLatency{
				Count: p.Count,
				P50:   uint64(p.P50),
				P90:   uint64(p.P90),
				P99:   uint64(p.P99),
				P999:  uint64(p.P999),
			}
		}
	}
	return rep
}

// WriteJSON writes res as one indented JSON object followed by a
// newline — the format of the committed BENCH_*.json files.
func WriteJSON(w io.Writer, res Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report(res))
}

// JSONReports flattens a sweep into one report per cell, in candidate-
// major order (matching SweepResult.Results).
func (r SweepResult) JSONReports() []JSONReport {
	var out []JSONReport
	for _, row := range r.Results {
		for _, res := range row {
			out = append(out, Report(res))
		}
	}
	return out
}
