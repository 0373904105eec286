package harness

import (
	"sync/atomic"
	"time"

	"listset/internal/batch"
	"listset/internal/obs"
	"listset/internal/obs/trace"
	"listset/internal/workload"
)

// Batched workload mode: when Config.BatchSize > 1 (or the workload
// carves out range scans) the workers stop issuing one point operation
// at a time and instead draw k keys per step, handing them to the
// set's batch surface in one call. Throughput accounting stays per
// KEY, not per call — a batch of k submitted keys counts as k
// operations — so batched and per-key cells are directly comparable
// and the speedup visible in reports is the amortization itself, not
// an accounting artifact. A scan counts as one operation (its cost is
// proportional to the width, which the scan_keys tally exposes).

// batchMode reports whether drive must run the batched worker loop.
func (c Config) batchMode() bool {
	return c.BatchSize >= 1 || c.Workload.ScanPercent > 0
}

// applyBatch applies one batched operation through bs and tallies
// it: len(ks) raw draws, of which the batch surface reports how many
// took effect; every other draw is a failure of the op's kind. The
// batch surface sorts and deduplicates, so a key drawn twice in one
// batch takes effect at most once and its repeat counts as a failed
// insert, a failed remove or a contains miss. That matches one
// application of each distinct key, native surface and fallback alike.
func applyBatch(bs batch.Batcher, op workload.Op, ks []int64, c *Counts) {
	k := int64(len(ks))
	switch op {
	case workload.Insert:
		n := int64(bs.InsertAll(ks))
		c.InsertOK += n
		c.InsertFail += k - n
	case workload.Remove:
		n := int64(bs.RemoveAll(ks))
		c.RemoveOK += n
		c.RemoveFail += k - n
	default: // Contains
		n := int64(bs.ContainsAll(ks))
		c.ContainsHit += n
		c.ContainsMiss += k - n
	}
}

// batchedLoop is the worker body for batched/scan mode. Latency
// samples time the whole call — one batch or one scan — under the
// call's op kind (scans under obs.OpScan), so batched latency rows
// read as per-call, while throughput stays per-key.
func batchedLoop(set Set, cfg Config, id int, gen *workload.Generator, stop *atomic.Bool, local *Counts, shard *obs.Recorder, mask uint64, myBeat *beat, tr *trace.Tracer) {
	k := cfg.BatchSize
	if k < 1 {
		k = 1
	}
	width := cfg.Workload.ScanSpan()
	rs, _ := set.(batch.Ranger)
	bs := batch.AsBatcher(set)
	buf := make([]int64, 0, k)
	var n uint64
	for !stop.Load() {
		// Fewer steps per stop-check than the point loop's 32: each
		// step is up to k operations already.
		for i := 0; i < 4; i++ {
			op, ks := gen.NextBatch(buf, k)
			kind := opKind(op)
			if tr != nil {
				tr.OpBegin(id, kind, ks[0])
			}
			var t0 time.Time
			sampled := false
			if shard != nil && n&mask == 0 {
				sampled = true
				t0 = time.Now()
			}
			ok := false
			if op == workload.Scan {
				lo := ks[0]
				got := len(rs.RangeScan(lo, lo+width))
				local.Scans++
				local.ScanKeys += int64(got)
				ok = got > 0
			} else {
				// "ok" for a traced batch = at least one key took
				// effect; the per-key detail is in the tallies.
				before := local.InsertOK + local.RemoveOK + local.ContainsHit
				applyBatch(bs, op, ks, local)
				ok = local.InsertOK+local.RemoveOK+local.ContainsHit > before
			}
			if shard != nil {
				if sampled {
					shard.Record(kind, time.Since(t0))
				}
			}
			n++
			if tr != nil {
				tr.OpEnd(id, kind, ks[0], ok)
			}
		}
		if myBeat != nil {
			myBeat.n.Add(1)
		}
	}
}
