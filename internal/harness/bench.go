// Package harness is the Go equivalent of the Synchrobench measurement
// loop the paper uses (Gramoli, PPoPP 2015): N worker goroutines apply a
// randomized operation mix to one shared set for a fixed wall-clock
// duration after a warm-up, repeated several times; the metric is
// aggregate throughput in operations per second.
//
// The harness is deliberately boring: per-worker xorshift generators,
// per-worker counters merged after the run, an atomic stop flag, and a
// start barrier so all workers begin together. Anything cleverer would
// risk measuring the harness.
package harness

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"listset/internal/batch"
	"listset/internal/failpoint"
	"listset/internal/mem"
	"listset/internal/obs"
	"listset/internal/obs/trace"
	"listset/internal/stats"
	"listset/internal/trylock"
	"listset/internal/workload"
)

// Set is the operation surface the harness drives. listset.Set satisfies
// it structurally; the harness deliberately does not depend on the root
// package.
type Set interface {
	Insert(v int64) bool
	Remove(v int64) bool
	Contains(v int64) bool
}

// Config describes one benchmark cell: an implementation, a thread
// count, a workload, and the measurement protocol. It is the only
// description of a cell: what New builds (its shard count, whether its
// nodes live in arenas) is read off the built set into Result, never
// restated here.
type Config struct {
	// Name identifies the implementation in reports.
	Name string
	// New constructs a fresh, empty set.
	New func() Set
	// Threads is the number of worker goroutines.
	Threads int
	// Workload is the operation mix and key range.
	Workload workload.Config
	// BatchSize, when >= 1, switches the workers to batched mode: each
	// step draws BatchSize keys and applies them in one call through
	// batch.AsBatcher — the set's native batch surface, or the per-key
	// fallback when it has none. Throughput accounting stays per key
	// (a batch of k counts as k operations), so batched and per-key
	// cells are directly comparable; BatchSize 1 exercises the batch
	// entry points with single-key batches (the "batch=1 within 10% of
	// plain" regression cell). 0 means classic per-key mode. Scan
	// workloads (Workload.ScanPercent > 0) also use the batched loop
	// and require the set to implement batch.Ranger natively.
	BatchSize int
	// Duration is the measured interval per run.
	Duration time.Duration
	// Warmup runs the same load without counting before each
	// measurement. The paper warms up for as long as it measures.
	Warmup time.Duration
	// Runs is how many times the (warmup, measure) pair repeats; the
	// paper uses 5.
	Runs int
	// Seed makes population and op streams reproducible.
	Seed int64
	// Probes, when non-nil, is attached to every freshly constructed
	// set that implements obs.Instrumented; Result.Events reports the
	// counter deltas accumulated over the measured intervals (warm-up
	// events are excluded).
	Probes *obs.Probes
	// LatencySampleEvery, when positive, times every Nth operation of
	// each worker (N rounded up to a power of two) into per-worker
	// histogram shards, merged into Result.Latency. 0 disables
	// sampling, which is the zero-overhead default.
	LatencySampleEvery int
	// Chaos, when non-empty, arms these failpoint scenarios on each
	// run's freshly constructed set (via failpoint.Attach, plus
	// trylock.SetChaos when a scenario targets SiteTryLockAcquire).
	// Arming happens AFTER pre-population, so a hostile scenario can
	// never livelock the setup phase it was not meant to test.
	Chaos []failpoint.Scenario
	// RetryBudget, when positive, is forwarded to implementations with
	// a bounded-retry ladder (obs.RetryBudgeted); Result.Retry reports
	// what the ladder saw over the measured intervals only — the
	// interval is bracketed with ladder snapshots, so population and
	// warm-up restarts never pollute the report.
	RetryBudget int
	// Watchdog, when positive, enables the liveness watchdog: a run in
	// which any worker makes no progress for this long fails with a
	// goroutine dump (see watchdog.go). 0 disables it.
	Watchdog time.Duration
	// Trace, when non-nil, records the measured intervals into the
	// flight recorder: each worker emits op-begin/op-end span records
	// around every operation, and the tracer is attached as the probe
	// and failpoint sink for the duration of the measured drive (warm-up
	// and population are not traced). Workers are identified by their
	// harness ids, so the tracer should be sized with at least Threads
	// rings.
	Trace *trace.Tracer
	// Stream, when positive, emits interval metrics during the measured
	// drives: every Stream the harness digests the probe counters and
	// latency shards into a windowed trace.StreamRow, collected in
	// Result.Timeseries and forwarded to StreamSink. Latency windows
	// need LatencySampleEvery > 0; event windows need Probes.
	Stream time.Duration
	// StreamSink, when non-nil, receives each StreamRow as its window
	// closes (called from the streaming goroutine).
	StreamSink func(trace.StreamRow)
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	if c.New == nil {
		return fmt.Errorf("harness: Config.New is nil")
	}
	if c.Threads <= 0 {
		return fmt.Errorf("harness: Threads = %d, must be positive", c.Threads)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("harness: Duration = %v, must be positive", c.Duration)
	}
	if c.Runs <= 0 {
		return fmt.Errorf("harness: Runs = %d, must be positive", c.Runs)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("harness: RetryBudget = %d, must be non-negative", c.RetryBudget)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("harness: BatchSize = %d, must be non-negative", c.BatchSize)
	}
	if c.Watchdog < 0 {
		return fmt.Errorf("harness: Watchdog = %v, must be non-negative", c.Watchdog)
	}
	if c.Stream < 0 {
		return fmt.Errorf("harness: Stream = %v, must be non-negative", c.Stream)
	}
	for _, sc := range c.Chaos {
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	return c.Workload.Validate()
}

// Counts aggregates per-operation tallies across all workers of one run.
// In batched mode the point-op tallies count KEYS (a batch of k
// submitted keys lands k tallies), so Total stays per-key comparable
// with classic mode.
type Counts struct {
	ContainsHit  int64
	ContainsMiss int64
	InsertOK     int64 // effective inserts (value was absent)
	InsertFail   int64
	RemoveOK     int64 // effective removes (value was present)
	RemoveFail   int64
	Scans        int64 // completed range scans (each counts as one op)
	ScanKeys     int64 // keys returned across all scans
}

// Total returns the total number of completed operations.
func (c Counts) Total() int64 {
	return c.ContainsHit + c.ContainsMiss + c.InsertOK + c.InsertFail + c.RemoveOK + c.RemoveFail + c.Scans
}

// EffectiveUpdateRatio returns the fraction of all operations that
// actually modified the structure — the "effective update ratio"
// Synchrobench reports.
func (c Counts) EffectiveUpdateRatio() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.InsertOK+c.RemoveOK) / float64(t)
}

func (c *Counts) add(o Counts) {
	c.ContainsHit += o.ContainsHit
	c.ContainsMiss += o.ContainsMiss
	c.InsertOK += o.InsertOK
	c.InsertFail += o.InsertFail
	c.RemoveOK += o.RemoveOK
	c.RemoveFail += o.RemoveFail
	c.Scans += o.Scans
	c.ScanKeys += o.ScanKeys
}

// Result is the outcome of running one Config.
type Result struct {
	Config Config
	// Shards is the shard count of the set Config.New built, read off
	// it through Shards() int; 0 when the set is not partitioned.
	Shards int
	// Arena reports whether the built set's nodes live in arenas
	// (internal/mem), read off it through ArenaStats.
	Arena bool
	// Throughputs holds ops/sec for each measured run.
	Throughputs []float64
	// Summary summarizes Throughputs.
	Summary stats.Summary
	// Counts aggregates operation tallies over all measured runs.
	Counts Counts
	// InitialSize is the set size after pre-population of the last run.
	InitialSize int
	// Events holds the probe-counter deltas over the measured runs;
	// all zero unless Config.Probes was set (and the implementation
	// implements obs.Instrumented).
	Events obs.Snapshot
	// Latency holds the sampled per-operation-kind latency histograms;
	// nil unless Config.LatencySampleEvery was positive.
	Latency *obs.Recorder
	// Retry aggregates the restart/escalation tallies over all runs;
	// meaningful only when HasRetry is true.
	Retry obs.RetryStats
	// HasRetry reports whether the implementation exposes a retry
	// ladder (obs.RetryBudgeted).
	HasRetry bool
	// Timeseries holds the interval-metrics windows emitted over all
	// measured drives, in order; empty unless Config.Stream was
	// positive.
	Timeseries []trace.StreamRow
	// Mallocs and AllocBytes are the runtime.MemStats deltas summed
	// over the measured intervals (population and warm-up excluded).
	// They count the whole process, so they are meaningful for
	// single-cell runs, not for concurrent cells in one process.
	Mallocs    uint64
	AllocBytes uint64
}

// AllocsPerOp returns heap allocations per completed operation over
// the measured intervals.
func (r Result) AllocsPerOp() float64 {
	if t := r.Counts.Total(); t > 0 {
		return float64(r.Mallocs) / float64(t)
	}
	return 0
}

// BytesPerOp returns heap bytes allocated per completed operation over
// the measured intervals.
func (r Result) BytesPerOp() float64 {
	if t := r.Counts.Total(); t > 0 {
		return float64(r.AllocBytes) / float64(t)
	}
	return 0
}

// Run executes the full protocol for cfg: Runs × (populate fresh set,
// warm up, measure), and returns the per-run throughputs.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg}
	if cfg.LatencySampleEvery > 0 {
		res.Latency = obs.NewRecorder()
	}
	for r := 0; r < cfg.Runs; r++ {
		counts, elapsed, err := runOnce(cfg, r, &res)
		if err != nil {
			return res, err
		}
		tput := float64(counts.Total()) / elapsed.Seconds()
		res.Throughputs = append(res.Throughputs, tput)
		res.Counts.add(counts)
	}
	res.Summary = stats.Summarize(res.Throughputs)
	return res, nil
}

// runOnce executes one (populate, warm up, measure) cycle of the
// protocol, folding probe/retry tallies into res as it goes.
func runOnce(cfg Config, r int, res *Result) (Counts, time.Duration, error) {
	set := cfg.New()
	if cfg.Workload.ScanPercent > 0 {
		if _, ok := set.(batch.Ranger); !ok {
			// No per-key emulation: a Contains sweep over the scan
			// width would measure a different algorithm.
			return Counts{}, 0, fmt.Errorf("harness: %s has no RangeScan; scan workloads need a native scan surface", cfg.Name)
		}
	}
	if cfg.Probes != nil {
		obs.Attach(set, cfg.Probes)
	}
	var fps *failpoint.Set
	if len(cfg.Chaos) > 0 {
		fps = failpoint.NewSet()
		failpoint.Attach(set, fps)
		if chaosTargets(cfg.Chaos, failpoint.SiteTryLockAcquire) {
			// The try-lock hook is process-wide (the lock is one word,
			// with no room for a pointer); scope it to this run.
			trylock.SetChaos(fps)
			defer trylock.SetChaos(nil)
		}
	}
	if cfg.RetryBudget > 0 {
		obs.AttachRetryBudget(set, cfg.RetryBudget)
	}
	var rb obs.RetryBudgeted
	if b, ok := set.(obs.RetryBudgeted); ok {
		rb = b
		res.HasRetry = true
	}
	if sh, ok := set.(interface{ Shards() int }); ok {
		res.Shards = sh.Shards()
	}
	if a, ok := set.(interface{ ArenaStats() (mem.Stats, bool) }); ok {
		_, res.Arena = a.ArenaStats()
	}
	res.InitialSize = workload.Prepopulate(cfg.Workload, cfg.Seed+int64(r), set.Insert)
	// Arm only now, after population, so the setup phase is never the
	// victim of the faults the measured phase is meant to absorb.
	if fps != nil {
		if err := fps.ArmAll(cfg.Chaos); err != nil {
			return Counts{}, 0, err
		}
	}
	if cfg.Warmup > 0 {
		if _, _, err := drive(set, cfg, cfg.Warmup, uint64(cfg.Seed)+uint64(r)*1000, nil, nil, fps, nil); err != nil {
			return Counts{}, 0, err
		}
	}
	// Bracket the measured interval with counter snapshots so that
	// warm-up and population events are excluded from the report. The
	// MemStats bracket rides the same boundary; ReadMemStats stops the
	// world, so both reads sit outside the timed drive.
	var before obs.Snapshot
	if cfg.Probes != nil {
		before = cfg.Probes.Snapshot()
	}
	// Pre-allocate the per-worker latency shards so the streamer can
	// window them while the drive is still running.
	var shards []*obs.Recorder
	if res.Latency != nil {
		shards = make([]*obs.Recorder, cfg.Threads)
		for i := range shards {
			shards[i] = obs.NewRecorder()
		}
	}
	var str *trace.Streamer
	if cfg.Stream > 0 {
		str = trace.NewStreamer(cfg.Stream, cfg.Probes, shards, func(row trace.StreamRow) {
			// Appends from the streaming goroutine are joined by
			// str.Stop before runOnce reads Timeseries back.
			res.Timeseries = append(res.Timeseries, row)
			if cfg.StreamSink != nil {
				cfg.StreamSink(row)
			}
		})
	}
	// Attach the tracer as probe/failpoint sink only around the measured
	// drive: SetSink happens-before the workers start and the detach
	// happens after they drain, the plain-field discipline both sinks
	// document.
	if tr := cfg.Trace; tr != nil {
		if cfg.Probes != nil {
			cfg.Probes.SetSink(tr)
		}
		if fps != nil {
			fps.SetSink(tr)
		}
		tr.RunBegin(r)
	}
	if str != nil {
		str.Start()
	}
	// Bracket the measured drive with ladder snapshots so Result.Retry
	// reports the measured interval only (warm-up restarts excluded).
	var retryBefore obs.RetryStats
	if rb != nil {
		retryBefore = rb.RetryStats()
	}
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	counts, elapsed, err := drive(set, cfg, cfg.Duration, uint64(cfg.Seed)+uint64(r)*1000+500, res.Latency, shards, fps, cfg.Trace)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if rb != nil {
		res.Retry = res.Retry.Add(rb.RetryStats().Sub(retryBefore))
	}
	if str != nil {
		str.Stop()
	}
	if tr := cfg.Trace; tr != nil {
		if cfg.Probes != nil {
			cfg.Probes.SetSink(nil)
		}
		if fps != nil {
			fps.SetSink(nil)
		}
	}
	res.Mallocs += memAfter.Mallocs - memBefore.Mallocs
	res.AllocBytes += memAfter.TotalAlloc - memBefore.TotalAlloc
	if cfg.Probes != nil {
		res.Events = res.Events.Add(cfg.Probes.Snapshot().Sub(before))
	}
	return counts, elapsed, err
}

// chaosTargets reports whether any scenario arms the given site.
func chaosTargets(scs []failpoint.Scenario, site failpoint.Site) bool {
	for _, sc := range scs {
		if sc.Site == site {
			return true
		}
	}
	return false
}

// applyOp applies one generated operation to set, tallies the result,
// and returns it (the traced loop stamps it into the op-end record).
func applyOp(set Set, op workload.Op, k int64, c *Counts) bool {
	switch op {
	case workload.Contains:
		if set.Contains(k) {
			c.ContainsHit++
			return true
		}
		c.ContainsMiss++
		return false
	case workload.Insert:
		if set.Insert(k) {
			c.InsertOK++
			return true
		}
		c.InsertFail++
		return false
	case workload.Remove:
		if set.Remove(k) {
			c.RemoveOK++
			return true
		}
		c.RemoveFail++
		return false
	}
	return false
}

// opKind maps a workload op to its latency-recorder kind.
func opKind(op workload.Op) obs.OpKind {
	switch op {
	case workload.Insert:
		return obs.OpInsert
	case workload.Remove:
		return obs.OpRemove
	case workload.Scan:
		return obs.OpScan
	default:
		return obs.OpContains
	}
}

// sampleMask returns the and-mask implementing "every Nth op" with N
// rounded up to a power of two, so the sampling decision on the hot
// path is a single mask-and-compare instead of a modulo.
func sampleMask(every int) uint64 {
	if every <= 1 {
		return 0 // sample every op
	}
	return 1<<bits.Len64(uint64(every-1)) - 1
}

// drive runs cfg.Threads workers against set for roughly d and returns
// the merged counts and the actual elapsed time measured from the start
// barrier's release to the last worker's finish line crossing.
//
// When rec is non-nil, each worker times every Nth of its operations
// (N = cfg.LatencySampleEvery rounded up to a power of two) into a
// private obs.Recorder shard; shards are merged into rec after the
// workers drain, so the hot path never shares histogram cache lines.
//
// When cfg.Watchdog is positive, every worker bumps a padded beat
// counter once per operation batch and a liveness watchdog samples
// them; a worker stalled past the deadline fails the interval with a
// goroutine dump, after disarming fps (may be nil) so the stalled
// workers can drain.
//
// shards, when non-nil, supplies the pre-allocated per-worker recorder
// shards (len cfg.Threads) so a concurrent streamer can window them;
// when nil and rec is non-nil, drive allocates its own. tr, when
// non-nil, makes every worker bracket each operation with
// op-begin/op-end trace records.
func drive(set Set, cfg Config, d time.Duration, seedBase uint64, rec *obs.Recorder, shards []*obs.Recorder, fps *failpoint.Set, tr *trace.Tracer) (Counts, time.Duration, error) {
	var (
		stop  atomic.Bool
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		total Counts
		beats []beat
	)
	if cfg.Watchdog > 0 {
		beats = make([]beat, cfg.Threads)
	}
	if rec != nil && shards == nil {
		shards = make([]*obs.Recorder, cfg.Threads)
		for i := range shards {
			shards[i] = obs.NewRecorder()
		}
	}
	labels := pprof.Labels(
		"impl", cfg.Name,
		"workload", cfg.Workload.String(),
		"threads", fmt.Sprint(cfg.Threads),
	)
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Labels make worker samples separable in CPU, mutex and
			// block profiles when several cells run in one process.
			pprof.Do(context.Background(), labels, func(context.Context) {
				gen := workload.NewGenerator(cfg.Workload, seedBase+uint64(id)*0x9E37+1)
				var (
					local Counts
					shard *obs.Recorder
					mask  uint64
					n     uint64
				)
				if rec != nil {
					shard = shards[id]
					mask = sampleMask(cfg.LatencySampleEvery)
				}
				var myBeat *beat
				if beats != nil {
					myBeat = &beats[id]
				}
				<-start
				if cfg.batchMode() {
					batchedLoop(set, cfg, id, gen, &stop, &local, shard, sampleMask(cfg.LatencySampleEvery), myBeat, tr)
				} else if tr != nil {
					for !stop.Load() {
						for i := 0; i < 32; i++ {
							op, k := gen.Next()
							kind := opKind(op)
							tr.OpBegin(id, kind, k)
							var ok bool
							if shard != nil && n&mask == 0 {
								t0 := time.Now()
								ok = applyOp(set, op, k, &local)
								shard.Record(kind, time.Since(t0))
							} else {
								ok = applyOp(set, op, k, &local)
							}
							n++
							tr.OpEnd(id, kind, k, ok)
						}
						if myBeat != nil {
							myBeat.n.Add(1)
						}
					}
				} else if shard == nil {
					for !stop.Load() {
						// A small batch per stop-check keeps the flag read off
						// the hot path without stretching run tails.
						for i := 0; i < 32; i++ {
							op, k := gen.Next()
							applyOp(set, op, k, &local)
						}
						if myBeat != nil {
							myBeat.n.Add(1)
						}
					}
				} else {
					for !stop.Load() {
						for i := 0; i < 32; i++ {
							op, k := gen.Next()
							if n&mask == 0 {
								t0 := time.Now()
								applyOp(set, op, k, &local)
								shard.Record(opKind(op), time.Since(t0))
							} else {
								applyOp(set, op, k, &local)
							}
							n++
						}
						if myBeat != nil {
							myBeat.n.Add(1)
						}
					}
				}
				mu.Lock()
				total.add(local)
				mu.Unlock()
			})
		}(t)
	}
	var wd *watchdog
	if beats != nil {
		wd = newWatchdog(beats, cfg.Watchdog, func() {
			stop.Store(true)
			if fps != nil {
				fps.DisarmAll()
			}
		})
	}
	// The interval ends early if the watchdog fires: its onFire has
	// already stopped the workers, so waiting out d measures nothing.
	var fired <-chan struct{} // nil, never ready, without a watchdog
	if wd != nil {
		fired = wd.done
	}
	timer := time.NewTimer(d)
	begin := time.Now()
	close(start)
	select {
	case <-timer.C:
	case <-fired:
		timer.Stop()
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(begin)
	if rec != nil {
		for _, shard := range shards {
			rec.Merge(shard)
		}
	}
	var err error
	if wd != nil {
		err = wd.stop()
	}
	return total, elapsed, err
}
