// Command synchrobench is the Go counterpart of the Synchrobench
// micro-benchmark the paper uses for its evaluation: it drives one
// list-based set implementation with a configurable mix of contains,
// insert and remove operations from N goroutines for a fixed duration
// and reports throughput.
//
// Example (the paper's Figure 1 cell at 8 threads):
//
//	synchrobench -impl vbl -threads 8 -update-ratio 20 -range 50 \
//	    -duration 5s -warmup 5s -runs 5
//
// Observability:
//
//	-probes        count contention events (restarts, lock contention,
//	               validation failures, CAS failures, unlinks)
//	-sample-every  time every Nth operation into latency histograms
//	-json          emit the full machine-readable report (implies both)
//	-metricsaddr   serve live expvar counters and pprof over HTTP
//	-trace         record the measured intervals into the flight
//	               recorder (internal/obs/trace) and write the capture
//	               here: a .json path gets Chrome trace-event JSON
//	               (load it in Perfetto or chrome://tracing), any other
//	               path the compact binary format (inspect with
//	               cmd/tracecat); implies -probes
//	-trace-depth   per-worker ring depth in records (rounded up to a
//	               power of two); older records are overwritten
//	-stream        emit interval metrics while measuring: every period
//	               one JSON line ("listset/stream/v1") of windowed
//	               event counts, per-stripe totals and latency
//	               percentiles, to stdout (stderr with -json); implies
//	               -probes, defaults -sample-every to 64
//
// Chaos (fault injection; see internal/failpoint):
//
//	-chaos         arm failpoint scenarios, comma-separated
//	               site:action[:probability][:delay] specs or the
//	               keyword "shipped" for the standard suite
//	-retry-budget  bound failed-validation retries: past K restarts an
//	               op escalates (head-restart, then backoff)
//	-watchdog      fail the run with a goroutine dump when any worker
//	               makes no progress for this long
//
// Batched and ranged operations (see DESIGN.md §13):
//
//	-batch N       batched mode: each worker step draws N keys and
//	               applies them through the set's batch surface in one
//	               amortized pass; throughput stays per key, so the
//	               speedup over -batch 1 is the amortization itself
//	-scan P        make P% of operations range scans [lo, lo+width)
//	               (taken out of the contains share; needs a native
//	               scan surface — vbl, lazy, harris, the skip lists, or
//	               any algorithm with -shards)
//	-scan-width W  key width of each scan (default 100)
//
// Key distribution: -dist uniform (default), -dist zipf -theta T
// (Zipfian with skew T in (0, 1) — key 0 hottest, the low-key windows
// contended), or -dist hotspot (-hot-frac P percent of the traffic in
// the window [-hot-lo, -hot-lo + -hot-width), rest uniform).
//
// Adaptive contention control (see internal/adapt, DESIGN.md §14):
//
//	-adapt           run the obs-driven feedback controller alongside
//	                 the workers: AIMD per-shard backoff ceilings,
//	                 retry-budget tightening under validation-failure
//	                 storms, and overload shedding; implies -probes,
//	                 reports an "adapt" section
//	-adapt-interval  controller tick period (default 50ms)
//	-phases          time-varying workload preset cycling through full
//	                 workload configs: bursts (read-heavy → write-burst
//	                 → delete-churn), seam (hot window parked on the
//	                 key-space midpoint — a shard boundary for every
//	                 power-of-two partition), moving (hot window hops
//	                 across the range each phase)
//	-phase-dur       dwell time per phase (default 150ms)
//
// Sharding: -shards N routes keys through the order-preserving range
// partitioner of internal/shard, so each of N independent lists owns
// range/N keys and traversals walk O(n/N) nodes. It composes with every
// algorithm; a composed name such as -impl vbl-sharded presets 16.
//
// Memory (see internal/mem):
//
//	-arena         arena-backed node lifetimes: slab allocation,
//	               per-worker free lists, epoch-based recycling
//	               (vbl, lazy and vbskip; composes with -shards)
//	-gcpercent     set GOGC for the process (-1 disables the GC)
//	-memprofile    write a heap profile after the measured runs
//
// The JSON report's "mem" section carries allocs_per_op/bytes_per_op
// over the measured intervals, the headline the arena moves.
//
// Gates: -gate smoke|batch|adapt|index runs one suite of the table in
// gates.go: every cell in its own process, the reports written to
// BENCH_<suite>.json, then the suite's gates (exit status 1 when one
// fails).
//
// Use -list to see the available implementations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"listset"
	"listset/internal/adapt"
	"listset/internal/failpoint"
	"listset/internal/harness"
	"listset/internal/obs"
	"listset/internal/obs/trace"
	"listset/internal/stats"
	"listset/internal/workload"
)

// options holds the command-line flags.
type options struct {
	implName, dist, phasePreset, chaosSpec, gate                         string
	metricsAddr, cpuprofile, mutexprof, blockprof, memprofile, traceFile string
	threads, shards, updateRatio, runs, sampleEvery, gcpercent           int
	traceDepth, batchSize, scanPct, hotFrac, retryBudget                 int
	keyRange, seed, scanWidth, hotLo, hotWidth                           int64
	duration, warmup, streamEvery, adaptEvery, phaseDur, watchdog        time.Duration
	list, quiet, jsonOut, probesOn, arena, adaptOn                       bool
	theta                                                                float64
}

// register defines the flags on fs, storing their values in o.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.implName, "impl", "vbl", "implementation to benchmark (see -list)")
	fs.IntVar(&o.threads, "threads", 4, "number of worker goroutines")
	fs.IntVar(&o.shards, "shards", 0, "split the key range across N independent lists (0 = the impl name's preset: 16 for vbl-sharded and the like, else unsharded)")
	fs.IntVar(&o.updateRatio, "update-ratio", 20, "percent of update operations (x/2% inserts, x/2% removes)")
	fs.Int64Var(&o.keyRange, "range", 2048, "key range; steady-state set size is about range/2")
	fs.DurationVar(&o.duration, "duration", 1*time.Second, "measured duration per run")
	fs.DurationVar(&o.warmup, "warmup", 1*time.Second, "warm-up before each run")
	fs.IntVar(&o.runs, "runs", 3, "number of (warmup, measure) repetitions")
	fs.Int64Var(&o.seed, "seed", 42, "base RNG seed")
	fs.BoolVar(&o.list, "list", false, "list available implementations and exit")
	fs.BoolVar(&o.quiet, "quiet", false, "print one self-describing line per run configuration")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON (implies -probes; default -sample-every 64)")
	fs.BoolVar(&o.probesOn, "probes", false, "count contention events during measured runs")
	fs.IntVar(&o.sampleEvery, "sample-every", -1, "time every Nth op into latency histograms; 0 disables (default: 64 with -json, else 0)")
	fs.StringVar(&o.metricsAddr, "metricsaddr", "", "serve expvar metrics and pprof over HTTP at this address (implies -probes)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured runs to this file")
	fs.StringVar(&o.mutexprof, "mutexprofile", "", "write a mutex-contention profile to this file")
	fs.StringVar(&o.blockprof, "blockprofile", "", "write a blocking profile to this file")
	fs.BoolVar(&o.arena, "arena", false, "arena-backed node lifetimes: slab allocation + epoch-based recycling (vbl, lazy, vbskip)")
	fs.IntVar(&o.gcpercent, "gcpercent", 0, "debug.SetGCPercent for the whole process; -1 disables the GC, 0 keeps the default")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (after a forced GC) to this file when the runs finish")
	fs.StringVar(&o.traceFile, "trace", "", "record measured intervals and write the capture here (.json = Chrome trace-event format, else compact binary; implies -probes)")
	fs.IntVar(&o.traceDepth, "trace-depth", trace.DefaultDepth, "flight-recorder ring depth per worker, in records (rounded up to a power of two)")
	fs.DurationVar(&o.streamEvery, "stream", 0, "stream interval metrics as JSON lines every period (0 = off; implies -probes)")
	fs.IntVar(&o.batchSize, "batch", 0, "batched mode: apply N keys per call through the set's batch surface (0 = per-key mode; 1 = single-key batches)")
	fs.IntVar(&o.scanPct, "scan", 0, "percent of operations that are range scans (out of the contains share; 0 = none)")
	fs.Int64Var(&o.scanWidth, "scan-width", 0, "key width of each range scan (0 = default 100)")
	fs.StringVar(&o.dist, "dist", "uniform", "key distribution: uniform, zipf or hotspot")
	fs.Float64Var(&o.theta, "theta", 0.99, "zipfian skew in (0, 1); used with -dist zipf")
	fs.IntVar(&o.hotFrac, "hot-frac", workload.DefaultHotPercent, "percent of traffic in the hot window; used with -dist hotspot")
	fs.Int64Var(&o.hotLo, "hot-lo", 0, "hot window's lower key bound; used with -dist hotspot")
	fs.Int64Var(&o.hotWidth, "hot-width", 0, "hot window's key width (0 = range/128); used with -dist hotspot")
	fs.BoolVar(&o.adaptOn, "adapt", false, "run the adaptive contention controller (implies -probes)")
	fs.DurationVar(&o.adaptEvery, "adapt-interval", 0, "controller tick period (0 = default 50ms)")
	fs.StringVar(&o.phasePreset, "phases", "", "time-varying workload preset: "+strings.Join(workload.PresetNames(), ", "))
	fs.DurationVar(&o.phaseDur, "phase-dur", 0, "dwell per phase (0 = default 150ms)")
	fs.StringVar(&o.chaosSpec, "chaos", "", "failpoint scenarios: comma-separated site:action[:prob][:delay], or \"shipped\"")
	fs.IntVar(&o.retryBudget, "retry-budget", 0, "failed-validation retry budget K before escalation (0 = unbounded)")
	fs.DurationVar(&o.watchdog, "watchdog", 0, "liveness deadline: fail the run if a worker stalls this long (0 = off)")
	fs.StringVar(&o.gate, "gate", "", "run a gate suite ("+strings.Join(gateSuites(), ", ")+"): every cell in its own process, written to BENCH_<suite>.json, then the suite's gates")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	if o.list {
		var arenas []string
		for _, im := range listset.Implementations() {
			safe := "concurrent"
			if !im.ThreadSafe {
				safe = "SINGLE-THREADED"
			}
			fmt.Printf("  %-17s %-15s %s\n", im.Name, safe, im.Desc)
			if im.NewArena != nil {
				arenas = append(arenas, im.Name)
			}
		}
		fmt.Printf("modes: -shards N composes with every algorithm, -arena with %s; -impl <algorithm>-sharded (16 shards) and <algorithm>-arena name the same modes\n",
			strings.Join(arenas, ", "))
		return
	}

	if o.gate != "" {
		os.Exit(runGate(o.gate))
	}
	im, opts, wl, probe, err := o.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "synchrobench:", err)
		os.Exit(2)
	}

	// Flag resolution: -json wants the full report, so it switches the
	// probes on and defaults sampling to a light 1-in-64; -metricsaddr
	// is pointless without counters to serve.
	if o.sampleEvery < 0 {
		if o.jsonOut || o.streamEvery > 0 {
			o.sampleEvery = 64
		} else {
			o.sampleEvery = 0
		}
	}
	if o.jsonOut || o.metricsAddr != "" || o.traceFile != "" || o.streamEvery > 0 || o.adaptOn {
		o.probesOn = true
	}

	if o.gcpercent != 0 {
		debug.SetGCPercent(o.gcpercent)
	}

	newSet := func() harness.Set {
		s, _ := im.Build(opts) // validated above
		return s
	}
	if _, ok := probe.(listset.Batcher); o.batchSize > 1 && !ok {
		fmt.Fprintf(os.Stderr, "synchrobench: note: %s has no native batch surface; -batch %d runs the per-key fallback\n", im.Name, o.batchSize)
	}
	cfg := harness.Config{
		Name:               im.Name,
		New:                newSet,
		Shards:             opts.Shards,
		Arena:              opts.Arena,
		Threads:            o.threads,
		Workload:           wl,
		BatchSize:          o.batchSize,
		Duration:           o.duration,
		Warmup:             o.warmup,
		Runs:               o.runs,
		Seed:               o.seed,
		LatencySampleEvery: o.sampleEvery,
		RetryBudget:        o.retryBudget,
		Watchdog:           o.watchdog,
	}
	if o.adaptOn {
		// The controller discovers the set's actuator surface itself.
		cfg.Adapt = &adapt.Config{Interval: o.adaptEvery}
	}
	if o.phasePreset != "" {
		sched, err := workload.Preset(o.phasePreset, wl, o.phaseDur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synchrobench:", err)
			os.Exit(2)
		}
		cfg.Phases = sched
	}
	if o.chaosSpec != "" {
		scs, err := failpoint.ParseScenarios(o.chaosSpec, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synchrobench:", err)
			os.Exit(2)
		}
		cfg.Chaos = scs
		if !failpoint.Compiled {
			fmt.Fprintln(os.Stderr, "synchrobench: warning: built with -tags nofailpoint; -chaos scenarios will never fire")
		}
	}
	if o.probesOn {
		cfg.Probes = obs.NewProbes()
		if !obs.Compiled {
			fmt.Fprintln(os.Stderr, "synchrobench: warning: built with -tags obsoff; probe counts will be zero")
		}
	}
	if o.traceFile != "" {
		cfg.Trace = trace.NewTracer(o.threads, o.traceDepth)
	}
	if o.streamEvery > 0 {
		cfg.Stream = o.streamEvery
		// With -json the report owns stdout, so the stream rides stderr.
		streamOut := os.Stdout
		if o.jsonOut {
			streamOut = os.Stderr
		}
		enc := json.NewEncoder(streamOut)
		var lastRow atomic.Value
		cfg.StreamSink = func(row trace.StreamRow) {
			lastRow.Store(row)
			enc.Encode(row) //nolint:errcheck // best-effort live stream
		}
		if o.metricsAddr != "" {
			obs.PublishFunc("listset.stream", func() any {
				return lastRow.Load()
			})
		}
	}
	if o.metricsAddr != "" {
		obs.Publish("listset.events", cfg.Probes)
		go func() {
			// DefaultServeMux already carries /debug/vars (expvar) and
			// /debug/pprof (net/http/pprof).
			if err := http.ListenAndServe(o.metricsAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "synchrobench: metrics server: %v\n", err)
			}
		}()
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if o.mutexprof != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", o.mutexprof)
	}
	if o.blockprof != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", o.blockprof)
	}
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.Trace != nil {
		if err := writeTrace(cfg.Trace, o.traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "synchrobench:", err)
			os.Exit(2)
		}
	}
	if o.memprofile != "" {
		// A forced GC first, so the profile shows live retention (slab
		// arenas held vs. garbage awaiting collection), not float.
		runtime.GC()
		writeProfile("heap", o.memprofile)
	}

	switch {
	case o.jsonOut:
		if err := harness.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case o.quiet:
		// One self-describing line so sweeps driven by shell loops stay
		// greppable: impl, threads, workload, mean ops/sec.
		fmt.Printf("%s %d %s %.0f\n", im.Name, cfg.Threads, cfg.Workload, res.Summary.Mean)
	default:
		printHuman(im.Name, cfg, res)
	}
}

// resolve looks the implementation up and composes its modes: the
// name's preset (vbl-sharded presets 16 shards, vbl-arena an arena)
// plus -shards/-arena. A sharded partition always splits exactly the
// workload's key range, so every shard owns range/S keys and
// traversals shrink O(n/S). The returned probe set has been built once
// to validate the options.
func (o *options) resolve() (listset.Impl, listset.Options, workload.Config, listset.Set, error) {
	var wl workload.Config
	im, err := listset.Lookup(o.implName)
	if err != nil {
		return im, listset.Options{}, wl, nil, err
	}
	if !im.ThreadSafe && o.threads > 1 {
		return im, listset.Options{}, wl, nil, fmt.Errorf("%s is not thread safe; use -threads 1", im.Name)
	}
	opts := im.Preset()
	if o.shards != 0 {
		opts.Shards = o.shards
	}
	opts.Arena = opts.Arena || o.arena
	opts.Lo, opts.Hi = 0, o.keyRange
	probe, err := im.Build(opts)
	if err != nil {
		return im, opts, wl, nil, err
	}
	wl = workload.Config{
		UpdatePercent: o.updateRatio,
		Range:         o.keyRange,
		ScanPercent:   o.scanPct,
		ScanWidth:     o.scanWidth,
	}
	switch o.dist {
	case "", workload.DistUniform:
	case workload.DistZipf:
		wl.Dist, wl.Theta = o.dist, o.theta
	case workload.DistHotspot:
		wl.Dist = o.dist
		wl.HotPercent, wl.HotLo, wl.HotWidth = o.hotFrac, o.hotLo, o.hotWidth
	default:
		wl.Dist = o.dist // workload.Validate rejects it with the full list
	}
	if _, ok := probe.(listset.Ranger); o.scanPct > 0 && !ok {
		return im, opts, wl, probe, fmt.Errorf("%s has no native range scan; drop -scan, add -shards, or pick vbl, lazy, harris or a skip list", im.Name)
	}
	return im, opts, wl, probe, nil
}

// printHuman renders the default human-readable report.
func printHuman(name string, cfg harness.Config, res harness.Result) {
	fmt.Printf("impl          %s\n", name)
	fmt.Printf("threads       %d\n", cfg.Threads)
	if cfg.Shards > 0 {
		fmt.Printf("shards        %d (range partitioned over [0, %d))\n", cfg.Shards, cfg.Workload.Range)
	}
	if cfg.Arena {
		fmt.Printf("arena         slab-backed nodes, epoch-based recycling\n")
	}
	fmt.Printf("workload      %s\n", cfg.Workload)
	if cfg.Phases != nil {
		fmt.Printf("phases        %s\n", cfg.Phases)
	}
	if cfg.BatchSize > 0 {
		fmt.Printf("batch         %d keys per call (throughput counted per key)\n", cfg.BatchSize)
	}
	fmt.Printf("protocol      %v measured after %v warm-up, %d runs\n", cfg.Duration, cfg.Warmup, cfg.Runs)
	if len(cfg.Chaos) > 0 {
		specs := make([]string, len(cfg.Chaos))
		for i, sc := range cfg.Chaos {
			specs[i] = sc.String()
		}
		fmt.Printf("chaos         %s\n", strings.Join(specs, ", "))
	}
	if cfg.RetryBudget > 0 || cfg.Watchdog > 0 {
		fmt.Printf("robustness    retry budget %d, watchdog %v\n", cfg.RetryBudget, cfg.Watchdog)
	}
	fmt.Printf("initial size  %d\n", res.InitialSize)
	fmt.Printf("throughput    %s ops/sec (mean), %s (median), ±%.1f%% rel. stddev\n",
		stats.HumanCount(res.Summary.Mean), stats.HumanCount(res.Summary.Median), 100*res.Summary.RelStdDev())
	c := res.Counts
	fmt.Printf("operations    %d total: %d/%d contains hit/miss, %d/%d insert ok/fail, %d/%d remove ok/fail\n",
		c.Total(), c.ContainsHit, c.ContainsMiss, c.InsertOK, c.InsertFail, c.RemoveOK, c.RemoveFail)
	if c.Scans > 0 {
		fmt.Printf("scans         %d completed, %.1f keys returned per scan\n",
			c.Scans, float64(c.ScanKeys)/float64(c.Scans))
	}
	fmt.Printf("effective     %.2f%% of operations modified the structure\n", 100*c.EffectiveUpdateRatio())
	fmt.Printf("memory        %.2f allocs/op, %.1f B/op (process-wide, measured intervals)\n",
		res.AllocsPerOp(), res.BytesPerOp())
	if cfg.Probes != nil {
		fmt.Printf("events        ")
		first := true
		for ev := obs.Event(0); ev < obs.NumEvents; ev++ {
			if !first {
				fmt.Printf(", ")
			}
			fmt.Printf("%s=%d", ev, res.Events[ev])
			first = false
		}
		fmt.Println()
	}
	if res.HasRetry && res.Retry.Ops > 0 {
		r := res.Retry
		fmt.Printf("retry         %d ops retried: %d restarts, %d escalated to head, %d backed off, worst op %d restarts\n",
			r.Ops, r.Restarts, r.EscalatedHead, r.EscalatedBackoff, r.MaxRestarts)
	}
	if a := res.Adapt; a != nil {
		fmt.Printf("adapt         %d ticks: %d/%d backoff widen/decay, %d/%d budget tighten/relax, %d/%d shed/unshed\n",
			a.Ticks, a.BackoffWiden, a.BackoffDecay, a.BudgetTighten, a.BudgetRelax, a.Sheds, a.Unsheds)
		fmt.Printf("              final budget %d, ceilings %v\n", a.FinalBudget, a.FinalCeilings)
	}
	if res.Latency != nil {
		for op := obs.OpKind(0); op < obs.NumOps; op++ {
			p := res.Latency.Percentiles(op)
			if p.Count == 0 {
				continue
			}
			fmt.Printf("latency       %-8s n=%-8d p50=%s p90=%s p99=%s p999=%s\n",
				op, p.Count,
				time.Duration(p.P50), time.Duration(p.P90),
				time.Duration(p.P99), time.Duration(p.P999))
		}
	}
}

// writeTrace exports the tracer's capture: Chrome trace-event JSON for
// .json paths (Perfetto-loadable), the compact binary format otherwise.
func writeTrace(tr *trace.Tracer, path string) error {
	capture := tr.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = capture.WriteChrome(f)
	} else {
		err = capture.WriteBinary(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	fmt.Fprintf(os.Stderr, "synchrobench: trace: %d records captured (%d overwritten) -> %s\n",
		len(capture.Records), capture.Drops, path)
	return nil
}

// writeProfile dumps the named runtime profile (mutex, block) to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "synchrobench: %s profile: %v\n", name, err)
	}
}
