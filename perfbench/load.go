package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"listset"
	"listset/internal/batch"
)

const (
	opRead = iota
	opInsert
	opRemove
	opScan
)

const (
	kindRead = iota
	kindUpdate
	kindScan
	nKinds
)

var kindOf = [...]int{opRead: kindRead, opInsert: kindUpdate, opRemove: kindUpdate, opScan: kindScan}

// A phase drives one set with nWorkers goroutines in a closed loop:
// each worker issues its next call as soon as the previous returns.
type phase struct {
	w   *workload
	set listset.Set
	b   listset.Batcher
	rg  listset.Ranger
	// tr is nil in an untraced phase.
	tr *tracer

	base   time.Time
	stop   atomic.Bool
	window atomic.Int32

	workers []*worker
	// atMeasure, if set, runs when the warm-up windows end.
	atMeasure func()
	// starts[i] is when window i began; the last entry is the stop time.
	starts []time.Duration
	warm   int
	// window is the unit every rate and quantile is first computed
	// over; the reported figure is the median across a phase's
	// windows, so a burst of outside interference moves a few windows,
	// not the result.
	windowDur time.Duration
}

// A worker's fields are written on every call; the padding keeps two
// workers' fields off shared cache lines (two lines, against
// adjacent-line prefetch).
type worker struct {
	_   [128]byte
	id  int
	rng rng
	// wins[i] holds window i's counts; one allocation per worker, so
	// two workers' counters never share a line.
	wins []winStats

	calls             uint64
	call              uint64 // id of the traced call in flight
	attempted, failed uint64
	inserted, removed int64
	firstErr          string

	keys []int64
	seen [64]uint64 // window-relative bitset (window <= 4096) to count a batch's distinct keys
	_    [128]byte
}

// winStats are one worker's counts for one window: key operations
// completed, key updates attempted and call latencies.
type winStats struct {
	ops, upd uint64
	lat      [nKinds]recorder
}

// newPhase prepares a phase on s; segment selects the workers' streams
// of the seed, so each segment of a run draws different calls.
func newPhase(w *workload, s listset.Set, tr *tracer, seed, segment uint64, window time.Duration) *phase {
	p := &phase{w: w, set: s, b: listset.AsBatcher(s), rg: listset.AsRanger(s), tr: tr, windowDur: window}
	for i := 0; i < nWorkers; i++ {
		p.workers = append(p.workers, &worker{
			id:   i,
			rng:  newRNG(seed, 1+segment*nWorkers+uint64(i)),
			keys: make([]int64, w.batch),
		})
	}
	return p
}

func (p *phase) now() int64 { return int64(time.Since(p.base)) }

// run warms up for warm windows, measures for measure windows and
// returns once every worker has stopped.
func (p *phase) run(warm, measure int) {
	total := warm + measure
	for _, wk := range p.workers {
		// One spare slot absorbs calls that finish after the last window.
		wk.wins = make([]winStats, total+1)
	}
	p.warm = warm
	p.base = time.Now()
	if p.tr != nil {
		p.tr.base = p.base
	}
	var wg sync.WaitGroup
	for _, wk := range p.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for !p.stop.Load() {
				if p.w.batch > 0 {
					wk.batchCalls(p)
				} else {
					wk.keyCalls(p)
				}
			}
		}(wk)
	}
	p.starts = append(p.starts[:0], 0)
	for i := 1; i <= total; i++ {
		time.Sleep(time.Duration(i)*p.windowDur - time.Since(p.base))
		p.starts = append(p.starts, time.Since(p.base))
		p.window.Store(int32(i))
		if i == warm && p.atMeasure != nil {
			p.atMeasure()
		}
	}
	p.stop.Store(true)
	wg.Wait()
}

// guard turns a panic in a call into one failed operation; the worker
// loop then carries on with its next chunk of calls.
func (wk *worker) guard() {
	if r := recover(); r != nil {
		wk.fail(fmt.Sprintf("panic: %v", r))
	}
}

func (wk *worker) fail(msg string) {
	wk.failed++
	if wk.firstErr == "" {
		wk.firstErr = msg
	}
}

func (p *phase) pickOp(r uint64) int {
	w := p.w
	switch pc := percent(r); {
	case pc < w.read:
		return opRead
	case pc < w.read+w.insert:
		return opInsert
	case pc < w.read+w.insert+w.remove:
		return opRemove
	}
	return opScan
}

// keyCalls issues a chunk of one-key calls, timing one in
// 2^w.sampleShift.
func (wk *worker) keyCalls(p *phase) {
	defer wk.guard()
	w, s := p.w, p.set
	sampleMask := uint64(1)<<w.sampleShift - 1
	traceMask := uint64(1)<<w.traceShift - 1
	for i := 0; i < 256 && !p.stop.Load(); i++ {
		r := wk.rng.next()
		k := w.lo + below(r, w.hi-w.lo)
		op := p.pickOp(r)
		win := p.window.Load()
		n := wk.calls
		wk.calls++
		wk.attempted++
		var ok bool
		if n&sampleMask == 0 || (p.tr != nil && n&traceMask == 0) {
			sp := wk.begin(p, n&traceMask == 0, k, k+1)
			t0 := p.now()
			ok = keyCall(s, op, k)
			t1 := p.now()
			wk.end(p, sp, t0, t1, layerListset, op, false, 1)
			wk.wins[win].lat[kindOf[op]].record(t1 - t0)
		} else {
			ok = keyCall(s, op, k)
		}
		switch {
		case ok && op == opInsert:
			wk.inserted++
		case ok && op == opRemove:
			wk.removed++
		}
		if op != opRead {
			wk.wins[win].upd++
		}
		wk.wins[win].ops++
	}
}

func keyCall(s listset.Set, op int, k int64) bool {
	switch op {
	case opInsert:
		return s.Insert(k)
	case opRemove:
		return s.Remove(k)
	}
	return s.Contains(k)
}

// batchCalls issues a chunk of batch and scan calls, timing each one
// and checking its result against what is possible.
func (wk *worker) batchCalls(p *phase) {
	defer wk.guard()
	w := p.w
	traceMask := uint64(1)<<w.traceShift - 1
	for i := 0; i < 16 && !p.stop.Load(); i++ {
		r := wk.rng.next()
		op := p.pickOp(r)
		win := p.window.Load()
		traced := wk.calls&traceMask == 0
		wk.calls++
		wk.attempted++
		if op == opScan {
			lo := w.lo + below(r, w.hi-w.lo-w.scanWidth)
			hi := lo + w.scanWidth
			sp := wk.begin(p, traced, lo, hi)
			t0 := p.now()
			out := p.rg.RangeScan(lo, hi)
			t1 := p.now()
			wk.end(p, sp, t0, t1, layerListset, opScan, false, len(out))
			wk.wins[win].lat[kindScan].record(t1 - t0)
			if err := checkScan(out, lo, hi); err != "" {
				wk.fail(err)
			}
			wk.wins[win].ops += uint64(len(out))
			continue
		}
		base := w.lo + below(wk.rng.next(), w.hi-w.lo-w.window)
		distinct := wk.fillBatch(base, w.window)
		sp := wk.begin(p, traced, base, base+w.window)
		t0 := p.now()
		c := batchCall(p.b, op, wk.keys)
		t1 := p.now()
		wk.end(p, sp, t0, t1, layerListset, op, true, len(wk.keys))
		wk.wins[win].lat[kindOf[op]].record(t1 - t0)
		if c < 0 || c > distinct {
			wk.fail(fmt.Sprintf("batch op %d returned %d for %d distinct keys", op, c, distinct))
		}
		switch op {
		case opInsert:
			wk.inserted += int64(c)
			wk.wins[win].upd += uint64(distinct)
		case opRemove:
			wk.removed += int64(c)
			wk.wins[win].upd += uint64(distinct)
		}
		wk.wins[win].ops += uint64(distinct)
		if sp >= 0 {
			// batch.Prep is priced off the call path, on the same keys.
			t0 := p.now()
			b := batch.Prep(wk.keys)
			t1 := p.now()
			b.Put()
			p.tr.record(-1, wk.call, t0, t1, layerBatch, op, true, len(wk.keys))
		}
	}
}

// fillBatch draws the worker's next batch from [base, base+width) and
// returns how many distinct keys it holds.
func (wk *worker) fillBatch(base, width int64) int {
	wk.seen = [64]uint64{}
	distinct := 0
	for j := range wk.keys {
		off := below(wk.rng.next(), width)
		wk.keys[j] = base + off
		word, bit := off>>6, uint64(1)<<(off&63)
		if wk.seen[word]&bit == 0 {
			wk.seen[word] |= bit
			distinct++
		}
	}
	return distinct
}

func batchCall(b listset.Batcher, op int, keys []int64) int {
	switch op {
	case opInsert:
		return b.InsertAll(keys)
	case opRemove:
		return b.RemoveAll(keys)
	}
	return b.ContainsAll(keys)
}

// checkScan reports why a RangeScan result is impossible, or "".
func checkScan(out []int64, lo, hi int64) string {
	if int64(len(out)) > hi-lo {
		return fmt.Sprintf("scan [%d, %d) returned %d keys", lo, hi, len(out))
	}
	for i, v := range out {
		if v < lo || v >= hi {
			return fmt.Sprintf("scan [%d, %d) returned %d", lo, hi, v)
		}
		if i > 0 && v <= out[i-1] {
			return fmt.Sprintf("scan [%d, %d) not strictly ascending at %d", lo, hi, v)
		}
	}
	return ""
}

// checkQuiescent checks the set once no call is in flight: its snapshot
// is strictly ascending and inside [lo, hi), and its size is the
// initial size plus the successful inserts minus the successful removes.
func checkQuiescent(s listset.Set, w *workload, want int) []string {
	var errs []string
	snap := s.Snapshot()
	if len(snap) != want {
		errs = append(errs, fmt.Sprintf("snapshot holds %d keys, want %d", len(snap), want))
	}
	if n := s.Len(); n != want {
		errs = append(errs, fmt.Sprintf("Len() = %d, want %d", n, want))
	}
	for i, v := range snap {
		if v < w.lo || v >= w.hi || (i > 0 && v <= snap[i-1]) {
			errs = append(errs, fmt.Sprintf("snapshot[%d] = %d out of order or range", i, v))
			break
		}
	}
	return errs
}

// phaseStats are a phase's totals and per-window figures.
type phaseStats struct {
	attempted, failed uint64
	net               int64               // successful inserts less successful removes
	ops, updates      uint64              // key operations and key updates in the measured windows
	seconds           float64             // measured
	rates             []float64           // key operations per second, per measured window
	lat               [nKinds][]*recorder // per measured window, merged across workers
	errs              []string
}

// add pools another phase's figures into st. Each phase ran on its
// own set, so net is left to the caller's per-set check.
func (st *phaseStats) add(o phaseStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	st.ops += o.ops
	st.updates += o.updates
	st.seconds += o.seconds
	st.rates = append(st.rates, o.rates...)
	for k := range st.lat {
		st.lat[k] = append(st.lat[k], o.lat[k]...)
	}
	st.errs = append(st.errs, o.errs...)
}

func (p *phase) stats() phaseStats {
	var st phaseStats
	total := len(p.starts) - 1
	st.seconds = (p.starts[total] - p.starts[p.warm]).Seconds()
	for win := p.warm; win < total; win++ {
		var ops uint64
		var merged [nKinds]*recorder
		for k := range merged {
			merged[k] = new(recorder)
		}
		for _, wk := range p.workers {
			ops += wk.wins[win].ops
			st.updates += wk.wins[win].upd
			for k := range merged {
				merged[k].merge(&wk.wins[win].lat[k])
			}
		}
		st.ops += ops
		st.rates = append(st.rates, float64(ops)/(p.starts[win+1]-p.starts[win]).Seconds())
		for k := range merged {
			st.lat[k] = append(st.lat[k], merged[k])
		}
	}
	for _, wk := range p.workers {
		st.attempted += wk.attempted
		st.failed += wk.failed
		st.net += wk.inserted - wk.removed
		if wk.firstErr != "" {
			st.errs = append(st.errs, fmt.Sprintf("worker %d: %s (%d failed)", wk.id, wk.firstErr, wk.failed))
		}
	}
	return st
}

// collect runs two full collections: the second frees what sync.Pool
// victim caches held across the first.
func collect() {
	runtime.GC()
	runtime.GC()
}

func liveHeap() uint64 {
	collect()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
