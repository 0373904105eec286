// Package obs is the repository's low-overhead contention
// observability layer. The paper's argument is about which schedules
// an algorithm *rejects* — Lazy's post-lock validation failures, VBL's
// prev-restarts, Harris's failed CASes — and this package makes those
// rejections countable on production-sized runs without perturbing
// the hot paths being measured.
//
// Two primitives:
//
//   - Probes: sharded, cache-line-padded event counters, one counter
//     per contention phenomenon (Event). An increment is a single
//     atomic add on a stripe selected by the operation's key, so
//     concurrent updates on different keys do not share a cache line.
//   - Recorder: per-operation-type latency histograms (see
//     stats.Histogram), one shard per worker, merged after a run.
//
// Probes are attached to an algorithm with SetProbes (the Instrumented
// interface); a nil *Probes means "disabled" and every probe site in
// algorithm code sits behind the On guard:
//
//	if p := s.probes; obs.On(p) {
//		p.Inc(obs.EvRestartPrev, v)
//	}
//
// so the disabled cost is one predictable branch on a field already in
// cache. Building with -tags obsoff turns On into a constant false and
// the compiler deletes the probe sites outright — the probe-free build
// the overhead regression test compares against. The obshygiene
// analyzer (internal/analysis) enforces the guard on probe calls in
// traversal loops.
package obs

import "sync/atomic"

// Event enumerates the contention phenomena the probes count. The
// per-algorithm mapping to the paper's rejected schedules is tabulated
// in DESIGN.md §7.
type Event uint8

const (
	// EvRestartPrev counts update traversals restarted from prev after
	// a failed validation (VBL's locality optimization). Like every
	// restart event it is counted by the operation's Escalator (see
	// Escalator.Failed), once per restart.
	EvRestartPrev Event = iota
	// EvRestartHead counts update traversals restarted from head: every
	// Lazy and Lazy-skip-list validation failure, Harris's failed
	// unlink/insert/mark CASes and lost removes, the VBL head-restart
	// ablation, and VBL's restarts once its retry ladder escalated to
	// head.
	EvRestartHead
	// EvTryLockContended counts lock acquisitions whose immediate
	// try-lock CAS failed (the lock was held by a competitor).
	EvTryLockContended
	// EvValFailDeleted counts validations that failed because the
	// locked-for node was logically deleted.
	EvValFailDeleted
	// EvValFailSucc counts identity validations that failed because the
	// successor pointer changed (Figure 2's rejected schedules).
	EvValFailSucc
	// EvValFailValue counts value validations that failed because no
	// node holding the sought value follows prev any more (the check
	// that distinguishes VBL from Lazy).
	EvValFailValue
	// EvCASFail counts algorithmic compare-and-swaps that failed and
	// forced a retry (Harris insert/mark/unlink; Figure 3's rejected
	// schedules).
	EvCASFail
	// EvLogicalDelete counts nodes marked deleted (the linearization
	// point of a successful remove).
	EvLogicalDelete
	// EvPhysicalUnlink counts nodes unlinked by their own remover.
	EvPhysicalUnlink
	// EvHelpedUnlink counts marked nodes unlinked by a traversing
	// helper rather than their remover (Harris-Michael helping).
	EvHelpedUnlink
	// EvRetryEscalateHead counts operations that exhausted their
	// failed-validation retry budget and escalated their restart
	// locality from prev to head (meaningful for VBL, whose native
	// policy is the prev-restart; head-native lists never fire it).
	EvRetryEscalateHead
	// EvRetryEscalateBackoff counts operations that kept failing past
	// twice the retry budget and started backing off onto the
	// scheduler between restarts.
	EvRetryEscalateBackoff
	// EvNodeAlloc counts list nodes handed out to inserts — from a
	// slab or recycled from a free list when an arena is attached, from
	// the Go heap otherwise (internal/mem).
	EvNodeAlloc
	// EvNodeRecycle counts retired nodes (one per node, not per limbo
	// bucket) whose grace period expired and that moved from a limbo
	// bucket back onto a free list for reuse.
	EvNodeRecycle
	// EvLimboRetire counts physically-unlinked nodes retired to a
	// per-worker limbo list to wait out the two-epoch grace period.
	EvLimboRetire
	// EvEpochAdvance counts successful global epoch advances of an
	// arena (internal/mem); the gap between this and EvLimboRetire is
	// how long retired memory waits.
	EvEpochAdvance
	// EvBatchWindowRestart counts every restart of a key of a batched
	// multi-window pass (InsertAll/RemoveAll), on every list, on top of
	// that restart's own restart event: so over batch keys it equals
	// EvRestartPrev + EvRestartHead + EvSkipRestartL0. Single-key
	// operations never count it.
	EvBatchWindowRestart
	// EvBatchSplit counts per-shard sub-batches the sharded façade
	// split a batch into (one count per non-empty sub-batch routed).
	EvBatchSplit
	// EvSkipRestartL0 counts VB skip-list update operations restarted
	// after a failed level-0 validation or a tower found mid-removal —
	// the VB-skip analogue of EvRestartHead (the skip list's native
	// restart locality is the head, since the descent re-derives every
	// level's predecessor).
	EvSkipRestartL0
	// EvSkipIndexLinkRetry counts retried index-level link attempts: the
	// per-level predecessor moved (or died) between the descent and the
	// try-lock, so the inserter re-derived the level and tried again.
	EvSkipIndexLinkRetry
	// EvSkipIndexUnlink counts index-level unlinks of deleted towers
	// (by the remover's sweep or an opportunistic traversing helper) —
	// the upper-level analogue of EvPhysicalUnlink.
	EvSkipIndexUnlink
	// EvSkipTowerHeight counts tower allocations, keyed by the tower's
	// height rather than the operation's key, so a trace or stripe
	// snapshot reconstructs the height histogram the geometric
	// distribution promises.
	EvSkipTowerHeight

	// NumEvents is the number of distinct events.
	NumEvents
)

// eventNames are the stable identifiers used in JSON reports and
// expvar output. Treat them as a schema: append, never rename.
var eventNames = [NumEvents]string{
	EvRestartPrev:          "restart_prev",
	EvRestartHead:          "restart_head",
	EvTryLockContended:     "trylock_contended",
	EvValFailDeleted:       "valfail_deleted",
	EvValFailSucc:          "valfail_succ",
	EvValFailValue:         "valfail_value",
	EvCASFail:              "cas_fail",
	EvLogicalDelete:        "logical_delete",
	EvPhysicalUnlink:       "physical_unlink",
	EvHelpedUnlink:         "helped_unlink",
	EvRetryEscalateHead:    "retry_escalate_head",
	EvRetryEscalateBackoff: "retry_escalate_backoff",
	EvNodeAlloc:            "node_alloc",
	EvNodeRecycle:          "node_recycle",
	EvLimboRetire:          "limbo_retire",
	EvEpochAdvance:         "epoch_advance",
	EvBatchWindowRestart:   "batch_window_restart",
	EvBatchSplit:           "batch_split",
	EvSkipRestartL0:        "skip_restart_l0",
	EvSkipIndexLinkRetry:   "skip_index_link_retry",
	EvSkipIndexUnlink:      "skip_index_unlink",
	EvSkipTowerHeight:      "skip_tower_height",
}

// String returns the event's stable report identifier.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "event(?)"
}

const (
	shardBits = 4
	// NumShards is the number of counter stripes per event.
	NumShards = 1 << shardBits
)

// shard is one counter stripe, padded so adjacent shards never share a
// cache line (two lines, to defeat adjacent-line prefetching).
type shard struct {
	counts [NumEvents]atomic.Uint64
	_      [(128 - (NumEvents*8)%128) % 128]byte
}

// EventSink receives a copy of every counted event — the hook the
// flight recorder (internal/obs/trace) attaches to turn aggregate
// counters into an ordered event stream. ObsEvent is called from the
// operation's own goroutine, inside the probe site, so implementations
// must be lock-free and allocation-free.
type EventSink interface {
	ObsEvent(ev Event, key int64)
}

// Probes is a set of sharded event counters. The zero value is ready
// to use; a Probes must not be copied after first use. Use one Probes
// per benchmark cell and read it with Snapshot.
type Probes struct {
	shards [NumShards]shard
	// sink, when non-nil, mirrors every Inc. A plain field: SetSink
	// must happen-before the workers that Inc start (and detaching
	// must happen-after they drain), which is how the harness brackets
	// a measured interval.
	sink EventSink
}

// NewProbes returns an empty counter set.
func NewProbes() *Probes { return &Probes{} }

// shardOf maps an operation key to a stripe (Fibonacci hashing, so
// near-sequential keys spread across stripes).
func shardOf(key int64) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) >> (64 - shardBits)
}

// SetSink attaches (or, with nil, detaches) an event sink. See the
// sink field for the required ordering discipline.
func (p *Probes) SetSink(s EventSink) { p.sink = s }

// Inc adds one to ev on the stripe selected by key — pass the key the
// operation is working on, so contention on the counters mirrors (and
// never exceeds) contention on the list itself.
func (p *Probes) Inc(ev Event, key int64) {
	p.shards[shardOf(key)].counts[ev].Add(1)
	if s := p.sink; s != nil {
		s.ObsEvent(ev, key)
	}
}

// Snapshot sums the stripes into a plain per-event view. It is a racy
// (per-counter atomic) snapshot, exact at quiescence.
func (p *Probes) Snapshot() Snapshot {
	var out Snapshot
	for i := range p.shards {
		for ev := range out {
			out[ev] += p.shards[i].counts[ev].Load()
		}
	}
	return out
}

// StripeSnapshot reads every stripe separately — one Snapshot per
// counter shard, indexable by the shardOf hash of the keys it serves.
// The interval-metrics streamer diffs consecutive stripe snapshots
// into per-stripe contention heatmap rows. Like Snapshot it is racy
// per counter, exact at quiescence.
func (p *Probes) StripeSnapshot() [NumShards]Snapshot {
	var out [NumShards]Snapshot
	for i := range p.shards {
		for ev := range out[i] {
			out[i][ev] = p.shards[i].counts[ev].Load()
		}
	}
	return out
}

// Snapshot is a plain per-event counter view, indexable by Event.
type Snapshot [NumEvents]uint64

// Add returns the event-wise sum of s and o.
func (s Snapshot) Add(o Snapshot) Snapshot {
	for i := range s {
		s[i] += o[i]
	}
	return s
}

// Sub returns the event-wise difference s - o (for deltas over an
// interval; counters are monotonic, so s must postdate o).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	for i := range s {
		s[i] -= o[i]
	}
	return s
}

// Total returns the sum over all events.
func (s Snapshot) Total() uint64 {
	var n uint64
	for _, c := range s {
		n += c
	}
	return n
}

// Map renders the snapshot with the stable event names, one entry per
// event (zeros included, so the report schema does not vary with the
// run).
func (s Snapshot) Map() map[string]uint64 {
	out := make(map[string]uint64, NumEvents)
	for ev, c := range s {
		out[Event(ev).String()] = c
	}
	return out
}

// Instrumented is implemented by set algorithms that can export
// contention events. SetProbes(nil) detaches.
type Instrumented interface {
	SetProbes(*Probes)
}

// Attach connects p to set if the algorithm supports instrumentation
// and reports whether it did.
func Attach(set any, p *Probes) bool {
	if in, ok := set.(Instrumented); ok {
		in.SetProbes(p)
		return true
	}
	return false
}
