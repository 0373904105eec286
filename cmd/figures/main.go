// Command figures regenerates the evaluation exhibits of "Optimal
// Concurrency for List-Based Sets" (PACT 2021):
//
//	-fig 1        Figure 1  — Lazy vs VBL, 20% updates, 25-node list
//	-fig 4        Figure 4  — 3 update ratios × 4 key ranges, all lists
//	-fig rtti     §4 ablation — Harris AMR vs RTTI-style marker variant
//	-fig sharded  beyond the paper — VBL behind the order-preserving
//	              range partitioner, shard counts from -shards
//	-fig batch    beyond the paper — batch amortization sweep: the
//	              one-pass multi-window batch surface at batch sizes
//	              1/8/64/512 (plus the plain per-key baseline) on a
//	              short and a long list
//	-fig chaos    robustness — injected restart-trigger failures at
//	              increasing probability, bounded-retry ladder armed
//	-fig replay   audit — Figure 2/3 failpoint replays captured by the
//	              flight recorder, lifted back to the paper's accepted
//	              schedules and linearizability-checked (-traceout DIR
//	              keeps the binary captures)
//	-fig all      everything (except replay, which is not a benchmark)
//
// Default durations are scaled down so the full grid finishes in
// minutes; pass -paper for the paper's protocol (5 s runs × 5 after a
// 5 s warm-up). Absolute numbers depend on the machine; the shapes —
// who wins, where Lazy collapses, what the Harris indirection costs —
// are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"listset"
	"listset/internal/failpoint"
	"listset/internal/harness"
	"listset/internal/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which figure to regenerate: 1, 4, rtti, all")
		paper    = flag.Bool("paper", false, "use the paper's full protocol (5s x5 after 5s warm-up)")
		duration = flag.Duration("duration", 300*time.Millisecond, "measured duration per run")
		warmup   = flag.Duration("warmup", 150*time.Millisecond, "warm-up before each run")
		runs     = flag.Int("runs", 3, "repetitions per cell")
		threads  = flag.String("threads", "", "comma-separated thread counts (default: powers of two up to 2x cores)")
		shards   = flag.String("shards", "1,4,16,64", "comma-separated shard counts for -fig sharded")
		seed     = flag.Int64("seed", 42, "base RNG seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		jsonOut  = flag.Bool("json", false, "emit one JSON array of per-cell reports (with contention events)")
		quiet    = flag.Bool("quiet", false, "print one self-describing line per cell instead of tables")
		traceDir = flag.String("traceout", "", "with -fig replay: also write each replay's binary capture into this directory")
	)
	flag.Parse()

	if *paper {
		*duration = 5 * time.Second
		*warmup = 5 * time.Second
		*runs = 5
	}
	threadList, err := parseThreads(*threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shardList, err := parseCounts("shard count", *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	proto := protocol{
		cell:    harness.Config{Duration: *duration, Warmup: *warmup, Runs: *runs, Seed: *seed},
		threads: threadList, csv: *csv, quiet: *quiet,
	}
	if *jsonOut {
		proto.reports = new([]harness.JSONReport)
	}
	switch *fig {
	case "1":
		figure1(proto)
	case "4":
		figure4(proto)
	case "rtti":
		figureRTTI(proto)
	case "survey":
		figureSurvey(proto)
	case "skiplist":
		figureSkipList(proto)
	case "index":
		figureIndex(proto)
	case "sharded":
		figureSharded(proto, shardList)
	case "batch":
		figureBatch(proto)
	case "chaos":
		figureChaos(proto)
	case "replay":
		if err := figureReplay(*traceDir); err != nil {
			fmt.Fprintln(os.Stderr, "figures: replay:", err)
			os.Exit(1)
		}
	case "all":
		figure1(proto)
		figure4(proto)
		figureRTTI(proto)
		figureSurvey(proto)
		figureSkipList(proto)
		figureIndex(proto)
		figureSharded(proto, shardList)
		figureBatch(proto)
		figureChaos(proto)
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown -fig %q (have: 1, 4, rtti, survey, skiplist, index, sharded, batch, chaos, replay, all)\n", *fig)
		os.Exit(2)
	}
	if proto.reports != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(*proto.reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

type protocol struct {
	// cell is the template of every cell the figures run: the
	// measurement protocol from the flags, plus what a figure varies
	// per sweep (figureBatch the batch size; figureChaos the scenarios,
	// retry budget and watchdog). runAndReport sets the workload.
	cell    harness.Config
	threads []int
	csv     bool
	quiet   bool
	// reports, when non-nil, collects every cell's JSON report instead
	// of printing tables; main flushes the array once at exit so stdout
	// stays a single valid JSON document.
	reports *[]harness.JSONReport
}

// header prints a section banner unless a machine-readable mode owns
// stdout.
func (p protocol) header(s string) {
	if p.reports == nil && !p.quiet {
		fmt.Println(s)
	}
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		var out []int
		max := 2 * runtime.NumCPU()
		for t := 1; t <= max; t *= 2 {
			out = append(out, t)
		}
		return out, nil
	}
	return parseCounts("thread count", s)
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(what, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("figures: bad %s %q", what, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// candidates enters the named implementations in their presets, or,
// with shards > 0, each behind that many shards over [0, keyRange),
// labelled e.g. "vbl-s16".
func candidates(shards int, keyRange int64, names ...string) []harness.Candidate {
	var out []harness.Candidate
	for _, name := range names {
		im, err := listset.Lookup(name)
		if err != nil {
			panic(err)
		}
		o, label := im.Preset(), im.Name
		if shards > 0 {
			o.Shards, o.Lo, o.Hi = shards, 0, keyRange
			label = fmt.Sprintf("%s-s%d", im.Name, shards)
		}
		out = append(out, harness.Candidate{Name: label, New: factory(im, o)})
	}
	return out
}

func runAndReport(p protocol, title string, cands []harness.Candidate, wl workload.Config, reference string) {
	p.cell.Workload = wl
	res, err := harness.RunSweep(harness.Sweep{
		Title:      title,
		Cell:       p.cell,
		Candidates: cands,
		Threads:    p.threads,
		// JSON reports carry the events section, so give those sweeps
		// per-cell probes.
		Observe: p.reports != nil,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	switch {
	case p.reports != nil:
		*p.reports = append(*p.reports, res.JSONReports()...)
	case p.quiet:
		for _, row := range res.Results {
			for _, cell := range row {
				fmt.Printf("%s %s %d %s %.0f\n",
					title, cell.Config.Name, cell.Config.Threads, cell.Config.Workload, cell.Summary.Mean)
			}
		}
	case p.csv:
		res.WriteCSV(os.Stdout)
	default:
		res.WriteTable(os.Stdout)
		if reference != "" {
			res.WriteSpeedups(os.Stdout, reference)
		}
		fmt.Println()
	}
}

// figure1 reproduces Figure 1: a ~25-node list (key range 50) under 20%
// updates; the paper shows Lazy collapsing past ~40 threads while VBL
// keeps scaling, reaching ~1.6x at 72 threads.
func figure1(p protocol) {
	p.header("=== Figure 1: Lazy vs VBL, 20% updates, key range 50 (~25 nodes) ===")
	runAndReport(p, "figure-1", candidates(0, 0, "vbl", "lazy"),
		workload.Config{UpdatePercent: 20, Range: 50}, "vbl")
}

// figure4 reproduces the Figure 4 grid: update ratios {0, 20, 100} ×
// key ranges {50, 200, 2000, 20000} for VBL, Lazy and both
// Harris-Michael variants.
func figure4(p protocol) {
	p.header("=== Figure 4: throughput grid, Intel protocol ===")
	cands := candidates(0, 0, "vbl", "lazy", "harris", "harris-amr")
	for _, update := range []int{0, 20, 100} {
		for _, keyRange := range []int64{50, 200, 2000, 20000} {
			title := fmt.Sprintf("figure-4 panel u=%d%% r=%d", update, keyRange)
			runAndReport(p, title, cands,
				workload.Config{UpdatePercent: update, Range: keyRange}, "vbl")
		}
	}
}

// figureSurvey goes beyond the paper's trio: every registered
// thread-safe algorithm — including the §5 related-work algorithms
// (Fomitchev-Ruppert, Optimistic) and the ablation variants — on the
// paper's standard 20%-update workload. Sharding and arenas are priced
// by the index and sharded figures.
func figureSurvey(p protocol) {
	p.header("=== Survey: all implementations, 20% updates, key range 200 ===")
	var names []string
	for _, im := range listset.Implementations() {
		if im.ThreadSafe {
			names = append(names, im.Name)
		}
	}
	runAndReport(p, "survey", candidates(0, 0, names...),
		workload.Config{UpdatePercent: 20, Range: 200}, "vbl")
}

// figureSkipList evaluates the §5 conjecture: the value-aware skip
// list against the LazySkipList baseline on a range where the index
// dominates, with the flat VBL for scale.
func figureSkipList(p protocol) {
	p.header("=== §5 conjecture: value-aware skip list vs LazySkipList ===")
	for _, keyRange := range []int64{20000, 200000} {
		names := []string{"vbskip", "lazyskip"}
		if keyRange <= 20000 {
			names = append(names, "vbl")
		}
		title := fmt.Sprintf("skiplist r=%d", keyRange)
		runAndReport(p, title, candidates(0, 0, names...),
			workload.Config{UpdatePercent: 20, Range: keyRange}, "vbskip")
	}
}

// figureIndex is the ROADMAP's large-range milestone check: past range
// ~2·10⁴ every flat list is traversal-bound — even sharded VBL only
// divides O(n) by S — while the skip indexes stay log-time. The
// figure lines up the strongest lists (flat and sharded VBL, Lazy,
// Harris) against vbskip, vbskip-arena, and their sharded forms at the
// same shard count; synchrobench -gate index turns the expected
// ordering into a committed gate.
func figureIndex(p protocol) {
	p.header("=== Log-time at large ranges: skip indexes vs every list ===")
	for _, keyRange := range []int64{20000, 200000} {
		cands := append(candidates(0, 0, "vbl", "lazy", "harris", "vbskip", "vbskip-arena"),
			candidates(listset.DefaultShards, keyRange, "vbl", "vbskip", "vbskip-arena")...)
		title := fmt.Sprintf("index r=%d", keyRange)
		runAndReport(p, title, cands,
			workload.Config{UpdatePercent: 20, Range: keyRange}, "vbskip")
	}
}

// figureSharded prices the order-preserving range partitioner on a
// long list (key range 16384, 20% updates): the flat VBL, Lazy and
// Harris lists set the scale, then VBL runs behind the sharded façade
// at each requested shard count. With traversals dominating at this
// range, throughput should track O(n/S) until the partition outgrows
// the set.
func figureSharded(p protocol, shardCounts []int) {
	p.header("=== Sharded VBL: order-preserving range partitioner, 20% updates, key range 16384 ===")
	wl := workload.Config{UpdatePercent: 20, Range: 16384}
	cands := candidates(0, 0, "vbl", "lazy", "harris")
	for _, s := range shardCounts {
		cands = append(cands, candidates(s, wl.Range, "vbl")...)
	}
	runAndReport(p, "sharded r=16384", cands, wl, "vbl")
}

// factory returns a constructor for im in the modes o selects,
// panicking if the algorithm cannot compose them.
func factory(im listset.Impl, o listset.Options) func() harness.Set {
	return func() harness.Set {
		s, err := im.Build(o)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// figureBatch prices the amortized one-pass batch surface (DESIGN.md
// §13): the three native lists at batch sizes 1/8/64/512, with the
// plain per-key loop (batch 0) setting the scale, on a short list
// (range 200, where a pass saves little) and a long one (range 20000,
// where one sorted pass replaces k full traversals). Per-key
// accounting means any ratio over the batch-0 row is amortization, not
// bookkeeping. Update ratio 100: batches of contains are ordinary
// traversals; inserts and removes are where the window protocol earns.
func figureBatch(p protocol) {
	p.header("=== Batch amortization: one-pass multi-window batches, 100% updates ===")
	cands := candidates(0, 0, "vbl", "lazy", "harris")
	for _, keyRange := range []int64{200, 20000} {
		wl := workload.Config{UpdatePercent: 100, Range: keyRange}
		for _, bs := range []int{0, 1, 8, 64, 512} {
			p.cell.BatchSize = bs
			title := fmt.Sprintf("batch k=%d r=%d", bs, keyRange)
			runAndReport(p, title, cands, wl, "vbl")
		}
	}
}

// figureChaos prices fault tolerance: the three paper algorithms under
// injected failures of their own restart triggers — VBL's lockNextAt
// validation, Lazy's validate, Harris's CAS — at increasing
// probability, with the bounded-retry ladder armed (budget 4). Each
// implementation only ever executes its own site, so one scenario list
// covers all three columns; the p=0 row (no arms) sets the scale and
// the degradation shape below it shows how each restart discipline
// absorbs faults. The watchdog guards the sweep against a scenario
// that tips a cell into livelock.
func figureChaos(p protocol) {
	p.header("=== Chaos: injected restart-trigger failure, 20% updates, key range 200 ===")
	wl := workload.Config{UpdatePercent: 20, Range: 200}
	cands := candidates(0, 0, "vbl", "lazy", "harris")
	p.cell.RetryBudget = 4
	p.cell.Watchdog = 30 * time.Second
	for _, prob := range []float64{0, 0.01, 0.1, 0.5} {
		p.cell.Chaos = nil
		if prob > 0 {
			for _, site := range []failpoint.Site{
				failpoint.SiteVBLLockNextAt,
				failpoint.SiteLazyValidate,
				failpoint.SiteHarrisCAS,
			} {
				p.cell.Chaos = append(p.cell.Chaos, failpoint.Scenario{
					Site: site, Action: failpoint.ActFail,
					Probability: prob, Seed: p.cell.Seed,
				})
			}
		}
		title := fmt.Sprintf("chaos p=%g", prob)
		runAndReport(p, title, cands, wl, "vbl")
	}
}

// figureRTTI isolates the §4 observation that the AMR variant's extra
// indirection costs traversal-heavy workloads dearly, which the
// RTTI/marker variant repairs.
func figureRTTI(p protocol) {
	p.header("=== RTTI ablation: Harris-Michael AMR vs marker, read-only ===")
	cands := candidates(0, 0, "harris", "harris-amr")
	for _, keyRange := range []int64{200, 20000} {
		title := fmt.Sprintf("rtti ablation r=%d", keyRange)
		runAndReport(p, title, cands,
			workload.Config{UpdatePercent: 0, Range: keyRange}, "harris")
	}
}
