package main

import (
	"listset"
	"listset/internal/shard"
	"listset/internal/skiplist"
)

// A workload is one set of inputs: a set implementation, a key range,
// an initial population and an operation mix. Every input is drawn
// from the seed, by the benchmark's own generator, so a later change to
// the repository's workload or harness packages cannot move them.
type workload struct {
	name string
	// Keys are drawn uniformly from [lo, hi). Half of them are present
	// initially, and the insert and remove shares are equal, so the
	// population stays near (hi-lo)/2.
	lo, hi int64
	// Percentages of calls; they sum to 100.
	read, insert, remove, scan uint64
	// batch > 0 makes every read and update call a batch of that many
	// keys, drawn from one random run of `window` consecutive keys; 0
	// means one key per call.
	batch     int
	window    int64
	scanWidth int64
	// bulk populates with the Loader surface (one quiescent merge walk);
	// otherwise keys are inserted one by one and, since that takes
	// microseconds, setupReps builds are timed on their own.
	bulk      bool
	setupReps int
	// sampleShift: one per-key call in 2^sampleShift is timed, so a
	// sub-microsecond call does not pay a clock read pair each time.
	// Batch and scan calls are always timed.
	sampleShift uint
	// traceShift: one call in 2^traceShift is traced in the traced phase.
	traceShift uint
	// build makes the set the end-to-end numbers are measured on;
	// buildTraced makes the same stack with each shard's set wrapped so
	// its calls can be timed apart from the façade's.
	build       func() listset.Set
	buildTraced func(t *tracer) listset.Set
	// Layers the workload's calls pass through; per-layer metrics of
	// the others are reported as n/a.
	core, skip, arena bool
}

const (
	shards   = 16
	indexLo  = 0
	indexHi  = 2_000_000
	nWorkers = 2
)

var workloads = []*workload{
	{
		// The paper's regime: a small, hot list with a high update
		// share, where VBL's try-lock, validation and restart protocol
		// does all the work. It fits in L1 and bypasses shard,
		// skiplist, batch and mem.
		name: "list-contended", lo: 0, hi: 128,
		read: 50, insert: 25, remove: 25,
		setupReps:   2000,
		sampleShift: 3, traceShift: 7,
		build:       listset.NewVBL,
		buildTraced: func(*tracer) listset.Set { return listset.NewVBL() },
		core:        true,
	},
	{
		// The winning index's per-key path, shard routing plus the skip
		// list descent, over about 10^6 keys: far larger than the last
		// level cache, so it is cache-miss bound. Bypasses core, batch
		// and mem.
		name: "index-point", lo: indexLo, hi: indexHi,
		read: 90, insert: 5, remove: 5,
		bulk:        true,
		sampleShift: 0, traceShift: 4,
		build: func() listset.Set { return listset.NewVBSkipShardedRange(shards, indexLo, indexHi) },
		buildTraced: func(t *tracer) listset.Set {
			return shard.NewRange(shards, indexLo, indexHi, func() shard.Set { return t.wrap(skiplist.NewVB()) })
		},
		skip: true,
	},
	{
		// Clustered batches, where finger-seeded passes amortize the
		// descents, with writes beside reads on the arena-backed index:
		// exercises batch, the shard batch split, the skip list batch
		// and scan passes and the arena's epoch recycling. Bypasses the
		// per-key path.
		name: "index-batch-churn", lo: indexLo, hi: indexHi,
		read: 40, insert: 25, remove: 25, scan: 10,
		batch: 64, window: 4096, scanWidth: 100,
		bulk:       true,
		traceShift: 1,
		build:      func() listset.Set { return listset.NewVBSkipShardedArenaRange(shards, indexLo, indexHi) },
		buildTraced: func(t *tracer) listset.Set {
			return shard.NewRange(shards, indexLo, indexHi, func() shard.Set { return t.wrap(skiplist.NewVBArena()) })
		},
		skip: true, arena: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng is splitmix64: tiny, fast and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) rng {
	r := rng{seed ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// below maps the high 32 bits of r onto [0, n) for n <= 2^32.
func below(r uint64, n int64) int64 {
	return int64(((r >> 32) * uint64(n)) >> 32)
}

// percent maps the low 32 bits of r onto [0, 100).
func percent(r uint64) uint64 {
	return (uint64(uint32(r)) * 100) >> 32
}

// initialKeys returns the ascending initial population drawn from
// seed: exactly half the range, chosen by selection sampling. A fixed
// size keeps seeds from moving set-up time: a list built key by key
// costs the square of its length.
func (w *workload) initialKeys(seed uint64) []int64 {
	r := newRNG(seed, 0)
	need := (w.hi - w.lo) / 2
	keys := make([]int64, 0, need)
	for k := w.lo; k < w.hi; k++ {
		if below(r.next(), w.hi-k) < need-int64(len(keys)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// populate builds the set and fills it with keys.
func (w *workload) populate(s listset.Set, keys []int64) {
	if w.bulk {
		listset.AsLoader(s).Load(keys)
		return
	}
	for _, k := range keys {
		s.Insert(k)
	}
}
