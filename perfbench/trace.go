package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"listset/internal/mem"
	"listset/internal/obs"
	"listset/internal/skiplist"
)

// The traced run records spans from the benchmark's own files: one
// around each traced call into the listset façade, one around each
// call the shard façade makes into a shard's skip list (through
// timedSet), and one around a batch.Prep of the call's keys made off
// the call path. Spans stay in memory and are written out when the
// run ends; every per-layer time is computed from them.

const (
	layerListset = iota
	layerSkiplist
	layerBatch
)

var layerNames = [...]string{"listset", "skiplist", "batch"}

// span is one timed call. Times are nanoseconds since the phase began.
type span struct {
	start, end int64
	// call identifies the benchmark call the span belongs to: the
	// worker in the top byte, its call sequence number below.
	call uint64
	// parent is the index of the enclosing span, or -1.
	parent int32
	// keys is the keys passed in, or for a scan the keys returned.
	keys      int32
	layer, op uint8
	batch     bool
}

func (s span) name() string {
	method := [...]string{"Contains", "Insert", "Remove", "RangeScan"}[s.op]
	if s.batch && s.op != opScan {
		method += "All"
	}
	if s.layer == layerBatch {
		method = "Prep"
	}
	return layerNames[s.layer] + "." + method
}

// spanHeadroom keeps room for the child spans of calls already in
// flight when the buffer stops admitting new traced calls.
const spanHeadroom = 1024

type tracer struct {
	base  time.Time
	spans []span
	next  atomic.Int64
	// sets are the shards' wrapped skip lists.
	sets []*timedSet
	// slots[w] describes worker w's traced call in flight, so a shard's
	// timedSet can tell which call an inner call belongs to. Keys are
	// all it sees: an inner call belongs to the slot whose key range
	// holds its first key. The other worker's untraced call can match
	// by chance; the containment check in layerMetrics drops it.
	slots [nWorkers]struct {
		parent atomic.Int64 // span index + 1; 0 when idle
		call   atomic.Uint64
		lo, hi atomic.Int64
		_      [96]byte
	}
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin reserves the span of a traced call and publishes it in the
// worker's slot; it returns -1 when the call is not traced.
func (wk *worker) begin(p *phase, traced bool, lo, hi int64) int32 {
	t := p.tr
	if t == nil || !traced || t.next.Load() >= int64(len(t.spans)-spanHeadroom) {
		return -1
	}
	i := t.next.Add(1) - 1
	wk.call = uint64(wk.id)<<56 | wk.calls
	sl := &t.slots[wk.id]
	sl.call.Store(wk.call)
	sl.lo.Store(lo)
	sl.hi.Store(hi)
	sl.parent.Store(i + 1)
	return int32(i)
}

func (wk *worker) end(p *phase, i int32, t0, t1 int64, layer, op int, batch bool, keys int) {
	if i < 0 {
		return
	}
	p.tr.slots[wk.id].parent.Store(0)
	p.tr.spans[i] = span{start: t0, end: t1, call: wk.call, parent: -1, keys: int32(keys), layer: uint8(layer), op: uint8(op), batch: batch}
}

// record appends a finished span.
func (t *tracer) record(parent int32, call uint64, t0, t1 int64, layer, op int, batch bool, keys int) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = span{start: t0, end: t1, call: call, parent: parent, keys: int32(keys), layer: uint8(layer), op: uint8(op), batch: batch}
}

// match returns the traced call in flight whose key range holds k.
func (t *tracer) match(k int64) (parent int32, call uint64, ok bool) {
	for w := range t.slots {
		sl := &t.slots[w]
		if p := sl.parent.Load(); p != 0 && k >= sl.lo.Load() && k < sl.hi.Load() {
			return int32(p - 1), sl.call.Load(), true
		}
	}
	return 0, 0, false
}

// timedSet wraps one shard's skip list and times the calls the shard
// façade makes into it on behalf of a traced call. It forwards the
// batch, range, bulk-load and probe surfaces, so the façade keeps its
// native paths.
type timedSet struct {
	t     *tracer
	inner *skiplist.VB
}

func (t *tracer) wrap(inner *skiplist.VB) *timedSet {
	s := &timedSet{t: t, inner: inner}
	t.sets = append(t.sets, s)
	return s
}

// arenaStats sums the shards' arena tallies. The node_recycle probe
// counts recycled limbo buckets, not nodes, so the recycle ratio is
// read from here instead.
func (t *tracer) arenaStats() mem.Stats {
	var sum mem.Stats
	for _, s := range t.sets {
		if a, ok := s.inner.ArenaStats(); ok {
			sum.Allocs += a.Allocs
			sum.Recycled += a.Recycled
		}
	}
	return sum
}

func (s *timedSet) keyCall(op int, k int64) bool {
	par, call, ok := s.t.match(k)
	if !ok {
		return keyCall(s.inner, op, k)
	}
	t0 := s.t.now()
	r := keyCall(s.inner, op, k)
	s.t.record(par, call, t0, s.t.now(), layerSkiplist, op, false, 1)
	return r
}

func (s *timedSet) batchCall(op int, ks []int64) int {
	if len(ks) == 0 {
		return batchCall(s.inner, op, ks)
	}
	par, call, ok := s.t.match(ks[0])
	if !ok {
		return batchCall(s.inner, op, ks)
	}
	t0 := s.t.now()
	n := batchCall(s.inner, op, ks)
	s.t.record(par, call, t0, s.t.now(), layerSkiplist, op, true, len(ks))
	return n
}

func (s *timedSet) Contains(v int64) bool                     { return s.keyCall(opRead, v) }
func (s *timedSet) Insert(v int64) bool                       { return s.keyCall(opInsert, v) }
func (s *timedSet) Remove(v int64) bool                       { return s.keyCall(opRemove, v) }
func (s *timedSet) ContainsAll(ks []int64) int                { return s.batchCall(opRead, ks) }
func (s *timedSet) InsertAll(ks []int64) int                  { return s.batchCall(opInsert, ks) }
func (s *timedSet) RemoveAll(ks []int64) int                  { return s.batchCall(opRemove, ks) }
func (s *timedSet) Len() int                                  { return s.inner.Len() }
func (s *timedSet) Snapshot() []int64                         { return s.inner.Snapshot() }
func (s *timedSet) Load(ks []int64) int                       { return s.inner.Load(ks) }
func (s *timedSet) SetProbes(p *obs.Probes)                   { s.inner.SetProbes(p) }
func (s *timedSet) Ascend(from int64, yield func(int64) bool) { s.inner.Ascend(from, yield) }

func (s *timedSet) RangeScan(lo, hi int64) []int64 {
	par, call, ok := s.t.match(lo)
	if !ok {
		return s.inner.RangeScan(lo, hi)
	}
	t0 := s.t.now()
	out := s.inner.RangeScan(lo, hi)
	s.t.record(par, call, t0, s.t.now(), layerSkiplist, opScan, false, len(out))
	return out
}

// recorded returns the finished spans.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// spanStats are the self times computed from one traced phase's spans.
type spanStats struct {
	spans, orphans int
	// Per-key façade calls: their duration and, where the façade has a
	// child span, the façade's self time.
	outerRead, outerUpdate meanAcc
	shardSelf              meanAcc
	innerRead, innerUpdate meanAcc
	// Batch façade calls: self time per key and children per call.
	batchSelf             meanAcc // ns summed over keys
	batchCalls, batchKids int
	innerBatch, innerScan meanAcc // ns summed over keys
	prep                  meanAcc // ns summed over keys
}

// meanAcc accumulates a sum over a count; its mean is NaN when empty.
type meanAcc struct{ sum, n float64 }

func (a *meanAcc) add(v, n float64) { a.sum += v; a.n += n }
func (a meanAcc) mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / a.n
}

// layerMetrics computes each layer's self time: a span's duration less
// the part its child spans cover. The façade runs a call's children one
// after another, so that part is their summed duration. A child that
// does not lie inside its parent's interval was matched to the wrong
// call; it and its parent are dropped.
// Spans that start before from (the warm-up) are not counted.
func layerMetrics(spans []span, from int64) spanStats {
	var st spanStats
	st.spans = len(spans)
	childNs := make([]int64, len(spans))
	kids := make([]int32, len(spans))
	bad := make([]bool, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		par := spans[s.parent]
		if s.start < par.start || s.end > par.end || s.call != par.call {
			bad[s.parent] = true
			st.orphans++
			continue
		}
		childNs[s.parent] += s.end - s.start
		kids[s.parent]++
	}
	for i, s := range spans {
		d := float64(s.end - s.start)
		switch {
		case s.start < from:
		case s.layer == layerBatch:
			st.prep.add(d, float64(s.keys))
		case s.layer == layerSkiplist && s.op == opScan:
			st.innerScan.add(d, float64(s.keys))
		case s.layer == layerSkiplist && s.batch:
			st.innerBatch.add(d, float64(s.keys))
		case s.layer == layerSkiplist && s.op == opRead:
			st.innerRead.add(d, 1)
		case s.layer == layerSkiplist:
			st.innerUpdate.add(d, 1)
		case s.op == opScan || bad[i]:
		case s.batch:
			if kids[i] > 0 {
				st.batchSelf.add(d-float64(childNs[i]), float64(s.keys))
				st.batchCalls++
				st.batchKids += int(kids[i])
			}
		default:
			if s.op == opRead {
				st.outerRead.add(d, 1)
			} else {
				st.outerUpdate.add(d, 1)
			}
			if kids[i] > 0 {
				st.shardSelf.add(d-float64(childNs[i]), 1)
			}
		}
	}
	return st
}

// writeSpans writes the spans to path: a header line of JSON naming
// the record layout, then one fixed-size little-endian record a span.
func writeSpans(path string, meta map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	names := map[string]int{}
	for _, s := range spans {
		names[s.name()] = int(s.layer)<<8 | int(s.op)<<1 | boolInt(s.batch)
	}
	meta["names"] = names
	meta["record"] = "start_ns int64, end_ns int64, call uint64, parent int32, keys int32, name uint16 (layer<<8 | op<<1 | batch); little-endian"
	hdr, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "perfbench-spans-v1 %s\n", hdr)
	var rec [34]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint64(rec[16:], s.call)
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[28:], uint32(s.keys))
		binary.LittleEndian.PutUint16(rec[32:], uint16(int(s.layer)<<8|int(s.op)<<1|boolInt(s.batch)))
		bw.Write(rec[:])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
