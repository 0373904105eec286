// Command perfbench is the repository's end-to-end benchmark. It drives
// the public listset API from its own closed-loop workers and its own
// seeded key generator, checks every result, and prints each metric by
// name and unit; the last line of its output is one JSON object.
//
//	go run . --workload list-contended --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures half the time untraced and half on a traced copy of the same
// stack, and reports the per-layer metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics; DESIGN.md beside
// this file says which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"listset"
	"listset/internal/mem"
	"listset/internal/obs"
)

type metric struct {
	name, unit string
	value      float64
	note       string // sample counts behind a quantile, shown in the report only
}

// endToEnd and perLayer fix the names and units BENCHMARK.json lists,
// in its order; they are the metrics of the result line.
//
// layerTable is every per-layer metric the traced run reports. Most of
// them belong to a layer that some workload bypasses, where they are
// n/a. The result line must give each of its metrics a measured number,
// so it carries only perLayer, the layer metrics every workload
// measures; the whole table goes out on a JSON line of its own just
// before it, with null for n/a.
var (
	endToEnd = [][2]string{
		{"ops_per_s", "1/s"},
		{"read_p50_ns", "ns"}, {"read_p90_ns", "ns"},
		{"update_p50_ns", "ns"}, {"update_p90_ns", "ns"},
		{"setup_s", "s"},
		{"mem_bytes_per_key", "B/key"},
	}
	perLayer = [][2]string{
		{"trylock.contended_per_kupdate", "1/kupdate"},
		{"mem.alloc_bytes_per_op", "B/op"},
		{"bench.trace_overhead", "ratio"},
	}
	layerTable = [][2]string{
		{"core.contains_ns", "ns"}, {"core.update_ns", "ns"},
		{"core.restarts_per_kupdate", "1/kupdate"}, {"core.useful_ratio", "ratio"},
		{"trylock.contended_per_kupdate", "1/kupdate"},
		{"shard.self_ns", "ns"},
		{"shard.batch_self_ns_per_key", "ns/key"}, {"shard.fanout_per_batch", "calls"},
		{"skiplist.contains_ns", "ns"}, {"skiplist.update_ns", "ns"},
		{"skiplist.batch_ns_per_key", "ns/key"}, {"skiplist.scan_ns_per_key", "ns/key"},
		{"skiplist.restart_l0_per_kupdate", "1/kupdate"}, {"skiplist.index_link_retry_per_kupdate", "1/kupdate"},
		{"batch.prep_ns_per_key", "ns/key"},
		{"mem.recycle_ratio", "ratio"}, {"mem.epoch_advances_per_s", "1/s"},
		{"mem.alloc_bytes_per_op", "B/op"}, {"mem.gc_cpu_fraction", "ratio"},
		{"bench.trace_overhead", "ratio"},
	}
)

// Every measured phase follows one second of warm-up whose figures are
// discarded, so caches and the allocator settle after set-up. The
// plain run's windows are a second long, so the scan p99 of
// index-batch-churn has at least 10 samples beyond it in each; the
// traced run only needs rates and uses half-second windows.
const (
	plainWindow  = time.Second
	tracedWindow = 500 * time.Millisecond
)

// spanCapacity bounds the traced phase's span buffer (40 MB).
const spanCapacity = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: list-contended, index-point or index-batch-churn")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	enc, _ := json.Marshal(map[string]any{"provenance": provenance(w, *seed, *seconds, *trace)})
	fmt.Fprintf(stdout, "%s\n", enc)

	var r *result
	var err error
	if *trace == 1 {
		r, err = tracedRun(w, *seed, *seconds, *out)
	} else {
		r, err = plainRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// provenance says where and how the numbers were taken.
func provenance(w *workload, seed uint64, seconds, trace int) map[string]any {
	host, _ := os.Hostname()
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "vcs.revision": rev, "vcs.modified": modified,
		"workers": nWorkers, "seed": seed, "workload": w.name, "seconds": seconds, "trace": trace,
	}
}

type result struct {
	attempted, failed uint64
	errs              []string
	metrics           []metric    // every metric of the run, in table order
	line              [][2]string // the metrics of the result line, in BENCHMARK.json order
	extra             []metric    // printed in the report only
}

func (r *result) add(ps phaseStats) {
	r.attempted += ps.attempted
	r.failed += ps.failed
	r.errs = append(r.errs, ps.errs...)
}

// quiescent checks the set after a phase; each violation is a failure.
func (r *result) quiescent(s listset.Set, w *workload, want int) {
	errs := checkQuiescent(s, w, want)
	r.attempted++
	r.failed += uint64(len(errs))
	r.errs = append(r.errs, errs...)
}

// print writes the report, the layer table when the run has metrics
// beyond the result line's, and last the result line. It fails, before
// the result line, if a metric of that line was not measured.
func (r *result) print(out io.Writer) error {
	errRate := float64(r.failed) / float64(r.attempted)
	extra := append(r.extra, metric{name: "error_rate", unit: "ratio", value: errRate,
		note: fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted)})
	for _, e := range r.errs {
		fmt.Fprintf(out, "error: %s\n", e)
	}
	for _, m := range append(slices.Clone(r.metrics), extra...) {
		v := "n/a"
		if !math.IsNaN(m.value) {
			v = strconv.FormatFloat(m.value, 'g', 6, 64)
		}
		fmt.Fprintf(out, "%-40s %14s %-9s %s\n", m.name, v, m.unit, m.note)
	}
	if len(r.metrics) > len(r.line) {
		layers := map[string]any{}
		for _, m := range r.metrics {
			var v *float64 // null: the workload bypasses the layer
			if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
				v = &m.value
			}
			layers[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
		enc, err := json.Marshal(map[string]any{"layers": layers})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", enc)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, d := range r.line {
		m := r.get(d[0])
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s was not measured (%v)", m.name, m.value)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(out, b.String())
	return nil
}

func (r *result) get(name string) *metric {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			return &r.metrics[i]
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (r *result) set(name string, value float64, note string) {
	m := r.get(name)
	m.value, m.note = value, note
}

// newResult makes a result whose metrics are defs, all n/a until set,
// and whose result line carries line.
func newResult(defs, line [][2]string) *result {
	r := &result{line: line}
	for _, d := range defs {
		r.metrics = append(r.metrics, metric{name: d[0], unit: d[1], value: math.NaN()})
	}
	return r
}

// segments is how many times a plain run builds the set and measures
// it. Throughput on one build of an index varies by up to 15% from one
// build to the next, in one process as across processes, so a run pools
// its windows over several builds.
const segments = 5

// bulkBuilds is how many times a plain run of an index workload builds
// the set: the segments' builds, then more that are only timed. One
// index build takes about half a second and varies by a quarter either
// way, so setup_s is the median of all of them.
const bulkBuilds = 11

// plainRun measures the end-to-end metrics, tracing off. Each segment
// builds the set from a collected heap, reads its live heap, and
// measures it for its share of the windows; rates and quantiles are
// medians over the windows of all segments.
func plainRun(w *workload, seed uint64, seconds int) (*result, error) {
	keys := w.initialKeys(seed)
	r := newResult(endToEnd, endToEnd)
	var builds, mems []float64
	var ps phaseStats
	nBuilds := segments
	if w.bulk {
		nBuilds = bulkBuilds
	}
	for seg := 0; seg < nBuilds; seg++ {
		before := liveHeap()
		t0 := time.Now()
		s := w.build()
		w.populate(s, keys)
		builds = append(builds, time.Since(t0).Seconds())
		mems = append(mems, (float64(liveHeap())-float64(before))/float64(len(keys)))

		windows := seconds / segments
		if seg < seconds%segments {
			windows++
		}
		if seg >= segments || windows == 0 {
			continue
		}
		p := newPhase(w, s, nil, seed, uint64(seg), plainWindow)
		p.run(1, windows)
		st := p.stats()
		ps.add(st)
		r.quiescent(s, w, len(keys)+int(st.net))
	}
	r.add(ps)
	if w.bulk {
		r.set("setup_s", median(builds), fmt.Sprintf("median of %d builds: %s", len(builds), compact(builds)))
	} else {
		r.set("setup_s", listSetup(w, keys), fmt.Sprintf("median of %d builds", w.setupReps))
	}
	r.set("mem_bytes_per_key", median(mems), fmt.Sprintf("median of %d builds of %d keys", len(mems), len(keys)))

	r.set("ops_per_s", median(ps.rates), fmt.Sprintf("median of %d windows: %s", len(ps.rates), compact(ps.rates)))
	for _, k := range []struct {
		kind int
		name string
	}{{kindRead, "read"}, {kindUpdate, "update"}} {
		for _, q := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("%s_p%d_ns", k.name, int(q*100))
			v, note, err := windowQuantile(ps.lat[k.kind], q)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			r.set(name, v, note)
		}
		// The p99 is printed but is not a result: on index-batch-churn
		// a batch call takes about 100 us, long enough that host CPU
		// steal lands in the slowest percent of calls, and the p99
		// follows the steal from run to run while the p90 does not.
		m := metric{name: k.name + "_p99_ns", unit: "ns"}
		var err error
		if m.value, m.note, err = windowQuantile(ps.lat[k.kind], 0.99); err != nil {
			m.value, m.note = math.NaN(), err.Error()+": refused"
		}
		r.extra = append(r.extra, m)
	}
	if w.scan > 0 {
		// Scans are a tenth of the calls, too few for a p99 in every
		// window, so their quantiles come from the whole run.
		all := new(recorder)
		for _, rec := range ps.lat[kindScan] {
			all.merge(rec)
		}
		for _, q := range []float64{0.5, 0.99} {
			m := metric{name: fmt.Sprintf("scan_p%d_ns", int(q*100)), unit: "ns", value: math.NaN(),
				note: fmt.Sprintf("whole run; %d samples, %d beyond", all.n, all.beyond(q))}
			if all.beyond(q) >= 10 {
				m.value = all.quantile(q)
			} else {
				m.note += ": refused, need 10"
			}
			r.extra = append(r.extra, m)
		}
	}
	return r, nil
}

// listSetup returns the median time of w.setupReps builds of a list
// populated key by key. Each takes microseconds, so they are timed in
// groups spread over a second: back to back they would all land in one
// brief state of the host, and the median would follow it.
func listSetup(w *workload, keys []int64) float64 {
	var times []float64
	for i := 0; i < w.setupReps; i++ {
		if i%100 == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		t0 := time.Now()
		w.populate(w.build(), keys)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

// windowQuantile is the median across windows of each window's
// q-quantile. It refuses a quantile that some window supports with
// fewer than 10 samples beyond it.
func windowQuantile(recs []*recorder, q float64) (float64, string, error) {
	var vals []float64
	var n uint64
	minBeyond := uint64(math.MaxUint64)
	for i, r := range recs {
		b := r.beyond(q)
		if b < 10 {
			return 0, "", fmt.Errorf("window %d has %d samples beyond its p%g (of %d); need 10", i, b, q*100, r.n)
		}
		minBeyond = min(minBeyond, b)
		n += r.n
		vals = append(vals, r.quantile(q))
	}
	return median(vals), fmt.Sprintf("median of %d windows; %d samples, >= %d beyond per window: %s", len(recs), n, minBeyond, compact(vals)), nil
}

// tracedRun measures half the time on the untraced stack and half on a
// traced copy of it, and reports the per-layer metrics.
func tracedRun(w *workload, seed uint64, seconds int, outDir string) (*result, error) {
	keys := w.initialKeys(seed)
	r := newResult(layerTable, perLayer)
	s := w.build()
	w.populate(s, keys)

	// Each half measures `seconds` windows, seconds/2 seconds.
	p := newPhase(w, s, nil, seed, 0, tracedWindow)
	var m0 runtimeSample
	p.atMeasure = func() { m0 = readRuntime() }
	p.run(2, seconds)
	m1 := readRuntime()
	ps := p.stats()
	r.add(ps)
	r.quiescent(s, w, len(keys)+int(ps.net))
	r.set("mem.alloc_bytes_per_op", (m1.allocBytes-m0.allocBytes)/float64(ps.ops), "untraced half")
	// The runtime updates its CPU classes when a collection ends, so
	// this is GC CPU time over the CPU time GOMAXPROCS made available.
	r.set("mem.gc_cpu_fraction", (m1.gcCPU-m0.gcCPU)/(ps.seconds*float64(runtime.GOMAXPROCS(0))), "untraced half")

	s, p = nil, nil
	collect()
	tr := newTracer(spanCapacity)
	ts := w.buildTraced(tr)
	w.populate(ts, keys)
	probes := obs.NewProbes()
	obs.Attach(ts, probes)
	tp := newPhase(w, ts, tr, seed, 0, tracedWindow)
	var ev0 obs.Snapshot
	var a0 mem.Stats
	tp.atMeasure = func() { ev0, a0 = probes.Snapshot(), tr.arenaStats() }
	tp.run(2, seconds)
	ev := probes.Snapshot().Sub(ev0)
	a1 := tr.arenaStats()
	tps := tp.stats()
	r.add(tps)
	r.quiescent(ts, w, len(keys)+int(tps.net))

	r.set("bench.trace_overhead", median(ps.rates)/median(tps.rates), "untraced / traced ops_per_s")
	spans := tr.recorded()
	st := layerMetrics(spans, int64(tp.starts[tp.warm]))
	setLayerMetrics(r, w, st, tps, ev, mem.Stats{Allocs: a1.Allocs - a0.Allocs, Recycled: a1.Recycled - a0.Recycled})

	path := filepath.Join(outDir, "spans-"+w.name+".bin")
	meta := map[string]any{"workload": w.name, "seed": seed, "measured_from_ns": int64(tp.starts[tp.warm])}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, meta, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.extra = append(r.extra, metric{name: "bench.spans", unit: "count", value: float64(len(spans)),
		note: fmt.Sprintf("%d dropped as mismatched; written to %s", st.orphans, path)})
	return r, nil
}

// setLayerMetrics fills the per-layer metrics of the layers w's calls
// pass through and leaves the others n/a.
func setLayerMetrics(r *result, w *workload, st spanStats, tps phaseStats, ev obs.Snapshot, arena mem.Stats) {
	perKUpdate := func(events ...obs.Event) float64 {
		var n uint64
		for _, e := range events {
			n += ev[e]
		}
		return 1000 * float64(n) / float64(tps.updates)
	}
	r.set("trylock.contended_per_kupdate", perKUpdate(obs.EvTryLockContended), "")
	if w.core {
		r.set("core.contains_ns", st.outerRead.mean(), fmt.Sprintf("%.0f spans", st.outerRead.n))
		r.set("core.update_ns", st.outerUpdate.mean(), fmt.Sprintf("%.0f spans", st.outerUpdate.n))
		r.set("core.restarts_per_kupdate", perKUpdate(obs.EvRestartPrev, obs.EvRestartHead), "")
		valfail := ev[obs.EvValFailDeleted] + ev[obs.EvValFailSucc] + ev[obs.EvValFailValue]
		r.set("core.useful_ratio", float64(tps.updates)/float64(tps.updates+valfail), "")
	}
	if w.skip {
		r.set("shard.self_ns", st.shardSelf.mean(), fmt.Sprintf("%.0f calls", st.shardSelf.n))
		r.set("skiplist.contains_ns", st.innerRead.mean(), fmt.Sprintf("%.0f spans", st.innerRead.n))
		r.set("skiplist.update_ns", st.innerUpdate.mean(), fmt.Sprintf("%.0f spans", st.innerUpdate.n))
		r.set("shard.batch_self_ns_per_key", st.batchSelf.mean(), fmt.Sprintf("%d calls", st.batchCalls))
		fanout := math.NaN()
		if st.batchCalls > 0 {
			fanout = float64(st.batchKids) / float64(st.batchCalls)
		}
		r.set("shard.fanout_per_batch", fanout, "")
		r.set("skiplist.batch_ns_per_key", st.innerBatch.mean(), fmt.Sprintf("%.0f keys", st.innerBatch.n))
		r.set("skiplist.scan_ns_per_key", st.innerScan.mean(), fmt.Sprintf("%.0f keys", st.innerScan.n))
		r.set("skiplist.restart_l0_per_kupdate", perKUpdate(obs.EvSkipRestartL0), "")
		r.set("skiplist.index_link_retry_per_kupdate", perKUpdate(obs.EvSkipIndexLinkRetry), "")
	}
	r.set("batch.prep_ns_per_key", st.prep.mean(), fmt.Sprintf("%.0f keys", st.prep.n))
	if w.arena {
		r.set("mem.recycle_ratio", float64(arena.Recycled)/float64(arena.Allocs), "recycled / allocated nodes")
		r.set("mem.epoch_advances_per_s", float64(ev[obs.EvEpochAdvance])/tps.seconds, "")
	}
}

type runtimeSample struct{ allocBytes, gcCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64()}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// compact renders values to three significant digits.
func compact(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'g', 3, 64)
	}
	return strings.Join(s, " ")
}
