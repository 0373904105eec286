package listset

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the batch/range/load surfaces (DESIGN.md §13): the oracle
// is always the same — a batch must behave exactly like applying the
// sorted, deduplicated keys one at a time — plus the ordered-read
// invariants (ascending, duplicate-free, linearizable under churn).

// nativeSurfaces reports which of Batcher, Ranger and Loader s
// implements natively.
func nativeSurfaces(s Set) [3]bool {
	_, b := s.(Batcher)
	_, r := s.(Ranger)
	_, l := s.(Loader)
	return [3]bool{b, r, l}
}

// TestCapabilityFlagsMatchSurfaces pins that capabilities, read off a
// built set by type assertion now that the registry carries no flags,
// compose as the modes promise: for every name Lookup accepts, the
// arena modes keep exactly the plain algorithm's native batch, scan
// and bulk-load surfaces, and the sharded façade serves all three
// natively (splitting per shard, falling back per key inside).
func TestCapabilityFlagsMatchSurfaces(t *testing.T) {
	for _, name := range acceptedNames() {
		t.Run(name, func(t *testing.T) {
			im, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			plain := nativeSurfaces(im.New())
			for _, o := range im.modes() {
				s, err := im.Build(o)
				if err != nil {
					t.Fatalf("Build(%+v): %v", o, err)
				}
				want := plain
				if o.Shards > 0 {
					want = [3]bool{true, true, true}
				}
				if got := nativeSurfaces(s); got != want {
					t.Errorf("%s: Batcher/Ranger/Loader = %v, want %v", label(im.Name, o), got, want)
				}
			}
		})
	}
}

// TestBatchBasicSemantics checks counts and membership for every
// implementation through the As* adapters (native and fallback alike).
func TestBatchBasicSemantics(t *testing.T) {
	forEachMode(t, 0, 10, func(t *testing.T, im Impl) {
		s := im.New()
		b := AsBatcher(s)
		// Unsorted with duplicates: {5, 1, 9, 3} effective.
		if got := b.InsertAll([]int64{9, 5, 1, 5, 3, 9}); got != 4 {
			t.Fatalf("InsertAll = %d, want 4", got)
		}
		if got := b.InsertAll([]int64{1, 2, 3}); got != 1 {
			t.Fatalf("second InsertAll = %d, want 1 (only 2 was absent)", got)
		}
		if got := b.ContainsAll([]int64{1, 2, 3, 4, 5}); got != 4 {
			t.Fatalf("ContainsAll = %d, want 4", got)
		}
		if got := b.RemoveAll([]int64{2, 2, 4, 9}); got != 2 {
			t.Fatalf("RemoveAll = %d, want 2", got)
		}
		want := []int64{1, 3, 5}
		got := s.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Snapshot = %v, want %v", got, want)
			}
		}
		// Empty and nil batches are no-ops.
		if b.InsertAll(nil) != 0 || b.RemoveAll([]int64{}) != 0 || b.ContainsAll(nil) != 0 {
			t.Fatal("empty batches must return 0")
		}
	})
}

// TestRangeScanSemantics checks [lo, hi) windowing, ascending order
// and Ascend's early stop for every implementation.
func TestRangeScanSemantics(t *testing.T) {
	forEachMode(t, 0, 100, func(t *testing.T, im Impl) {
		s := im.New()
		for k := int64(0); k < 100; k += 2 {
			s.Insert(k)
		}
		r := AsRanger(s)
		got := r.RangeScan(10, 20)
		want := []int64{10, 12, 14, 16, 18}
		if len(got) != len(want) {
			t.Fatalf("RangeScan(10, 20) = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("RangeScan(10, 20) = %v, want %v", got, want)
			}
		}
		if out := r.RangeScan(20, 10); out != nil && len(out) != 0 {
			t.Fatalf("inverted range returned %v", out)
		}
		if out := r.RangeScan(11, 12); len(out) != 0 {
			t.Fatalf("empty window returned %v", out)
		}
		// Ascend from mid-range, stop after 3 keys.
		var seen []int64
		r.Ascend(51, func(v int64) bool {
			seen = append(seen, v)
			return len(seen) < 3
		})
		want = []int64{52, 54, 56}
		if len(seen) != len(want) {
			t.Fatalf("Ascend = %v, want %v", seen, want)
		}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("Ascend = %v, want %v", seen, want)
			}
		}
	})
}

// TestLoadSemantics checks bulk population: O(k) on an empty set, a
// correct merge into a non-empty one, and agreement with Snapshot.
func TestLoadSemantics(t *testing.T) {
	forEachMode(t, 0, 10, func(t *testing.T, im Impl) {
		s := im.New()
		l := AsLoader(s)
		if got := l.Load([]int64{7, 3, 9, 3, 1}); got != 4 {
			t.Fatalf("Load on empty = %d, want 4", got)
		}
		// Merge: 5 is new, 3 and 9 are present.
		if got := l.Load([]int64{3, 5, 9}); got != 1 {
			t.Fatalf("Load merge = %d, want 1", got)
		}
		want := []int64{1, 3, 5, 7, 9}
		got := s.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("after Load, Snapshot = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after Load, Snapshot = %v, want %v", got, want)
			}
		}
		if s.Len() != 5 {
			t.Fatalf("Len = %d, want 5", s.Len())
		}
	})
}

// FuzzBatchVsOracle interprets the program bytes as a sequence of
// batch operations — batches of raw (unsorted, duplicated) keys — and
// requires every implementation's batch surface to return exactly what
// sequential per-key application of the sorted, deduplicated batch
// returns against a map oracle, with identical final snapshots.
func FuzzBatchVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2})                            // tiny insert batch
	f.Add([]byte{0, 9, 5, 5, 1, 1, 9, 2, 4})             // dups, then remove
	f.Add([]byte{0, 31, 30, 29, 3, 1, 0, 2, 2, 5, 5, 5}) // descending, churn
	seed := make([]byte, 0, 96)
	for i := byte(0); i < 31; i++ {
		seed = append(seed, 0, i) // op boundary noise
	}
	f.Add(seed)
	impls := testModes(0, 32)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			t.Skip("long programs add time, not coverage")
		}
		// Decode: first byte of each chunk picks the op, the next
		// 1+ (b%7) bytes are keys (mod 32 keeps collisions frequent).
		type batchOp struct {
			kind int
			keys []int64
		}
		var ops []batchOp
		for i := 0; i < len(prog); {
			kind := int(prog[i] % 3)
			i++
			n := 1
			if i < len(prog) {
				n += int(prog[i] % 7)
			}
			var keys []int64
			for j := 0; j < n && i < len(prog); j++ {
				keys = append(keys, int64(prog[i]%32))
				i++
			}
			if len(keys) > 0 {
				ops = append(ops, batchOp{kind, keys})
			}
		}
		// Oracle result per op: sequential application of the sorted,
		// deduplicated batch to a map.
		oracle := map[int64]bool{}
		want := make([]int, len(ops))
		for i, op := range ops {
			sorted := append([]int64(nil), op.keys...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			for j, v := range sorted {
				if j > 0 && v == sorted[j-1] {
					continue
				}
				switch op.kind {
				case 0:
					if !oracle[v] {
						oracle[v] = true
						want[i]++
					}
				case 1:
					if oracle[v] {
						delete(oracle, v)
						want[i]++
					}
				case 2:
					if oracle[v] {
						want[i]++
					}
				}
			}
		}
		for _, im := range impls {
			s := im.New()
			b := AsBatcher(s)
			for i, op := range ops {
				var got int
				switch op.kind {
				case 0:
					got = b.InsertAll(op.keys)
				case 1:
					got = b.RemoveAll(op.keys)
				case 2:
					got = b.ContainsAll(op.keys)
				}
				if got != want[i] {
					t.Fatalf("%s: op %d (kind %d, keys %v) = %d, oracle says %d",
						im.Name, i, op.kind, op.keys, got, want[i])
				}
			}
			snap := s.Snapshot()
			if len(snap) != len(oracle) {
				t.Fatalf("%s: final size %d, oracle %d", im.Name, len(snap), len(oracle))
			}
			for i, v := range snap {
				if !oracle[v] {
					t.Fatalf("%s: snapshot has %d, oracle does not", im.Name, v)
				}
				if i > 0 && snap[i-1] >= v {
					t.Fatalf("%s: snapshot not strictly ascending at %d", im.Name, i)
				}
			}
		}
	})
}

// TestRangeScanLinearizable hammers RangeScan under concurrent churn:
// even keys are stable members, odd keys churn. Every scan must (a) be
// strictly ascending and duplicate-free, and (b) contain exactly the
// stable evens of its window — an even missing or duplicated would be
// a scan that saw a state no linearization of the history allows.
func TestRangeScanLinearizable(t *testing.T) {
	forEachConcurrentMode(t, 0, 256, func(t *testing.T, im Impl) {
		const keys = 256
		s := im.New()
		if _, native := s.(Ranger); !native && testing.Short() {
			t.Skip("fallback Ranger is Snapshot-based; covered by the native impls")
		}
		for k := int64(0); k < keys; k += 2 {
			s.Insert(k)
		}
		r := AsRanger(s)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					k := int64(rng.Intn(keys/2))*2 + 1 // odd keys only
					if rng.Intn(2) == 0 {
						s.Insert(k)
					} else {
						s.Remove(k)
					}
				}
			}(int64(w) + 1)
		}
		for i := 0; i < 400; i++ {
			lo := int64(i % 64)
			hi := lo + 128
			got := r.RangeScan(lo, hi)
			evens := map[int64]bool{}
			for j, v := range got {
				if v < lo || v >= hi {
					t.Errorf("%s: scan [%d,%d) returned out-of-window key %d", im.Name, lo, hi, v)
				}
				if j > 0 && got[j-1] >= v {
					t.Errorf("%s: scan not strictly ascending: %d then %d", im.Name, got[j-1], v)
				}
				if v%2 == 0 {
					evens[v] = true
				}
			}
			for k := lo + lo%2; k < hi; k += 2 {
				if !evens[k] {
					t.Errorf("%s: scan [%d,%d) lost stable key %d", im.Name, lo, hi, k)
				}
			}
			if t.Failed() {
				break
			}
		}
		stop.Store(true)
		wg.Wait()
	})
}

// TestBatchConcurrentChurn stress-tests the multi-window pass itself:
// workers fire overlapping insert/remove batches over a small range
// while readers scan; afterwards the set must equal a per-key replay
// is impossible to pin down, so instead we check structural sanity —
// strict ascent, no sentinel leakage — and that every surviving key
// was inserted at some point.
func TestBatchConcurrentChurn(t *testing.T) {
	forEachConcurrentMode(t, 0, 192, func(t *testing.T, im Impl) {
		s := im.New()
		if _, native := s.(Batcher); !native {
			t.Skip("native batch surfaces only; fallback is the per-key ops already under test")
		}
		b := AsBatcher(s)
		r := AsRanger(s)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				keys := make([]int64, 24)
				for !stop.Load() {
					for i := range keys {
						keys[i] = int64(rng.Intn(192))
					}
					if rng.Intn(2) == 0 {
						b.InsertAll(keys)
					} else {
						b.RemoveAll(keys)
					}
				}
			}(int64(w) * 7)
		}
		for i := 0; i < 300; i++ {
			got := r.RangeScan(0, 192)
			for j := 1; j < len(got); j++ {
				if got[j-1] >= got[j] {
					t.Fatalf("%s: concurrent scan not strictly ascending: %v", im.Name, got[j-1:j+1])
				}
			}
			for _, v := range got {
				if v < 0 || v >= 192 {
					t.Fatalf("%s: concurrent scan leaked key %d", im.Name, v)
				}
			}
		}
		stop.Store(true)
		wg.Wait()
		// Quiescent check: snapshot and per-key Contains agree.
		for _, v := range s.Snapshot() {
			if !s.Contains(v) {
				t.Fatalf("%s: snapshot key %d not Contains-visible at quiescence", im.Name, v)
			}
		}
	})
}

// TestShardSeamBatch drives a batch straddling every boundary of a
// 16-shard partition: each sub-batch must land in its owning shard
// with nothing lost, duplicated or misrouted at the seams.
func TestShardSeamBatch(t *testing.T) {
	const (
		shards   = 16
		keyRange = 1024 // 64 keys per shard
	)
	for _, name := range []string{"vbl", "lazy", "harris"} {
		t.Run(name, func(t *testing.T) {
			im, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := im.Build(Options{Shards: shards, Lo: 0, Hi: keyRange})
			if err != nil {
				t.Fatal(err)
			}
			b := AsBatcher(s)
			r := AsRanger(s)
			// One batch with three keys around every seam: last key of
			// shard i, first and second of shard i+1 — plus the domain
			// edges.
			var keys []int64
			span := int64(keyRange / shards)
			for i := int64(1); i < shards; i++ {
				seam := i * span
				keys = append(keys, seam-1, seam, seam+1)
			}
			keys = append(keys, 0, keyRange-1)
			if got, want := b.InsertAll(keys), len(keys); got != want {
				t.Fatalf("seam InsertAll = %d, want %d", got, want)
			}
			if got := b.ContainsAll(keys); got != len(keys) {
				t.Fatalf("seam ContainsAll = %d, want %d", got, len(keys))
			}
			// A scan across the full range sees all seam keys in order.
			got := r.RangeScan(0, keyRange)
			if len(got) != len(keys) {
				t.Fatalf("seam scan returned %d keys, want %d", len(got), len(keys))
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("seam scan not ascending at %d: %v", i, got[i-1:i+1])
				}
			}
			// Remove exactly the keys below each seam; the seam keys
			// themselves must survive in the next shard.
			var lower []int64
			for i := int64(1); i < shards; i++ {
				lower = append(lower, i*span-1)
			}
			if got, want := b.RemoveAll(lower), len(lower); got != want {
				t.Fatalf("seam RemoveAll = %d, want %d", got, want)
			}
			for i := int64(1); i < shards; i++ {
				if s.Contains(i*span - 1) {
					t.Fatalf("key %d should be removed", i*span-1)
				}
				if !s.Contains(i * span) {
					t.Fatalf("seam key %d lost by the removal below it", i*span)
				}
			}
		})
	}
}

// TestShardSeamBatchParallel repeats the seam batch through the
// parallel fan-out path.
func TestShardSeamBatchParallel(t *testing.T) {
	s := NewVBLShardedRange(16, 0, 1024)
	type parallelizer interface{ SetBatchParallel(bool) }
	p, ok := s.(parallelizer)
	if !ok {
		t.Fatal("sharded façade lost SetBatchParallel")
	}
	p.SetBatchParallel(true)
	b := AsBatcher(s)
	var keys []int64
	for k := int64(0); k < 1024; k += 3 {
		keys = append(keys, k)
	}
	if got, want := b.InsertAll(keys), len(keys); got != want {
		t.Fatalf("parallel InsertAll = %d, want %d", got, want)
	}
	if got := b.ContainsAll(keys); got != len(keys) {
		t.Fatalf("parallel ContainsAll = %d, want %d", got, len(keys))
	}
	if got, want := b.RemoveAll(keys), len(keys); got != want {
		t.Fatalf("parallel RemoveAll = %d, want %d", got, want)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", s.Len())
	}
}

// TestFallbackAdapterOnUnportedImpl pins the adapter path: an
// implementation without native surfaces still serves the full batch
// contract through AsBatcher/AsRanger/AsLoader.
func TestFallbackAdapterOnUnportedImpl(t *testing.T) {
	im, err := Lookup("hoh")
	if err != nil {
		t.Fatal(err)
	}
	s := im.New()
	if nativeSurfaces(s) != [3]bool{} {
		t.Fatal("hoh grew native surfaces; retarget this test at a fallback impl")
	}
	if got := AsBatcher(s).InsertAll([]int64{3, 1, 2, 1}); got != 3 {
		t.Fatalf("fallback InsertAll = %d, want 3", got)
	}
	if got := AsRanger(s).RangeScan(2, 10); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("fallback RangeScan = %v, want [2 3]", got)
	}
	if got := AsLoader(s).Load([]int64{4, 5}); got != 2 {
		t.Fatalf("fallback Load = %d, want 2", got)
	}
}
