package listset

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"listset/internal/failpoint"
	"listset/internal/lincheck"
	"listset/internal/obs"
)

// Tests for the skip lists' full-citizenship surfaces (DESIGN.md §15):
// the sharded façade under seam-targeted faults, its allocation-free
// point path, and a fuzz target that drives the batch + scan paths of
// every skip variant against the map oracle.

// TestChaosSkipShardSeamFaults is the skip-list twin of
// TestChaosShardSeamFaults: forced failures hammer the level-0 locks
// and index links of towers on both flanks of every seam of a
// 16-shard skip index, while yields at the façade's routing step and
// inside the descent widen every window in which a seam operation can
// be overtaken. A tower whose index pointed into the wrong shard's
// nodes would surface as a non-linearizable history or a broken
// cross-shard snapshot order.
func TestChaosSkipShardSeamFaults(t *testing.T) {
	const shards = 16
	s := NewVBSkipShardedRange(shards, 0, 64)
	b, ok := s.(interface{ Boundaries() []int64 })
	if !ok {
		t.Fatal("sharded skip façade does not expose its boundaries")
	}
	boundaries := b.Boundaries()
	if len(boundaries) != shards {
		t.Fatalf("Boundaries() returned %d bounds, want %d", len(boundaries), shards)
	}

	fps := failpoint.NewSet()
	if !failpoint.Attach(s, fps) {
		t.Fatal("sharded skip façade is not Injectable")
	}
	obs.AttachRetryBudget(s, 4)
	if err := fps.ArmAll([]failpoint.Scenario{
		{Site: failpoint.SiteSkipLockNextAt, Action: failpoint.ActFail, Probability: 0.5, Keys: boundaries, Seed: 7},
		{Site: failpoint.SiteSkipIndexLink, Action: failpoint.ActFail, Probability: 0.5, Keys: boundaries, Seed: 8},
		{Site: failpoint.SiteSkipTraverse, Action: failpoint.ActYield, Probability: 0.2, Seed: 9},
		{Site: failpoint.SiteShardRoute, Action: failpoint.ActYield, Probability: 0.2, Seed: 10},
	}); err != nil {
		t.Fatal(err)
	}
	defer fps.DisarmAll()

	// Candidate keys hug every boundary from both sides.
	var candidates []int64
	for _, bd := range boundaries {
		candidates = append(candidates, bd-1, bd, bd+1)
	}
	initial := map[int64]bool{}
	for i, k := range candidates {
		if i%2 == 0 && k >= 0 {
			s.Insert(k)
			initial[k] = true
		}
	}

	ops := 500
	if testing.Short() {
		ops = 150
	}
	rec := lincheck.NewRecorder()
	const goroutines = 4
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		sess := rec.NewSession(s)
		wg.Add(1)
		go func(seed int64, sess *lincheck.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < ops; j++ {
				k := candidates[rng.Intn(len(candidates))]
				switch rng.Intn(4) {
				case 0:
					sess.Insert(k)
				case 1:
					sess.Remove(k)
				default:
					sess.Contains(k)
				}
			}
		}(int64(i)+7000, sess)
	}
	wg.Wait()
	if err := lincheck.Check(rec.History(), initial); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("Snapshot not strictly ascending across seams: %v", snap)
		}
	}
}

// TestShardedSkipPointPathAllocs: on a populated 16-shard skip index,
// the façade's point path — routing plus the descent — allocates
// nothing for Contains or for a Remove of a missing key, GC and arena.
func TestShardedSkipPointPathAllocs(t *testing.T) {
	const keys = 1 << 14
	for _, c := range []struct {
		name string
		s    Set
	}{
		{"gc", NewVBSkipShardedRange(16, 0, keys)},
		{"arena", NewVBSkipShardedArenaRange(16, 0, keys)},
	} {
		t.Run(c.name, func(t *testing.T) {
			for k := int64(0); k < keys; k += 2 {
				c.s.Insert(k)
			}
			var k int64
			next := func() int64 { k = (k + 7919) % keys; return k }
			if n := testing.AllocsPerRun(2000, func() { c.s.Contains(next()) }); n != 0 {
				t.Errorf("Contains allocates %.3f per op, want 0", n)
			}
			if n := testing.AllocsPerRun(2000, func() { c.s.Remove(next() | 1) }); n != 0 {
				t.Errorf("missing-key Remove allocates %.3f per op, want 0", n)
			}
			if got := c.s.Len(); got != keys/2 {
				t.Fatalf("Len = %d after missing-key removes, want %d", got, keys/2)
			}
		})
	}
}

// skipImpls returns both skip lists in every mode they compose with,
// sharded modes squeezed onto the fuzz key domain [0, 32).
func skipImpls(t testing.TB) []Impl {
	t.Helper()
	var algos []Impl
	for _, name := range []string{"vbskip", "lazyskip"} {
		im, err := Lookup(name)
		if err != nil {
			t.Fatalf("registry lost %q: %v", name, err)
		}
		algos = append(algos, im)
	}
	return modesOf(algos, 0, 32)
}

// FuzzSkipVsOracle drives the skip lists' native batch and scan
// surfaces — the single-descending-pass, finger-seeded paths that
// point-op fuzzing never reaches — against the map oracle. Chunk
// encoding: one op byte, then either a two-byte [lo, hi) window
// (RangeScan) or a length byte followed by raw (unsorted, duplicated)
// keys (InsertAll/RemoveAll/ContainsAll).
func FuzzSkipVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 9, 5, 1})                                 // one insert batch
	f.Add([]byte{0, 6, 31, 30, 29, 3, 1, 0, 1, 2, 30, 29})       // descending, then remove
	f.Add([]byte{0, 4, 8, 8, 8, 9, 3, 0, 31, 1, 1, 8, 3, 7, 11}) // dups, full scan, churn
	seed := make([]byte, 0, 96)
	for i := byte(0); i < 31; i++ {
		seed = append(seed, 0, 1, i, 3, i, 31) // insert one key, scan the tail
	}
	f.Add(seed)
	impls := skipImpls(f)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			t.Skip("long programs add time, not coverage")
		}
		type skipOp struct {
			kind   int
			keys   []int64
			lo, hi int64
		}
		var ops []skipOp
		for i := 0; i < len(prog); {
			kind := int(prog[i] % 4)
			i++
			if kind == 3 {
				if i+1 >= len(prog) {
					break
				}
				lo, hi := int64(prog[i]%32), int64(prog[i+1]%32)
				i += 2
				if lo > hi {
					lo, hi = hi, lo
				}
				ops = append(ops, skipOp{kind: 3, lo: lo, hi: hi + 1})
				continue
			}
			n := 1
			if i < len(prog) {
				n += int(prog[i] % 7)
				i++
			}
			var keys []int64
			for j := 0; j < n && i < len(prog); j++ {
				keys = append(keys, int64(prog[i]%32))
				i++
			}
			if len(keys) > 0 {
				ops = append(ops, skipOp{kind: kind, keys: keys})
			}
		}
		// Oracle: sequential application of the sorted, deduplicated
		// batch; scans read the half-open window out of the map.
		oracle := map[int64]bool{}
		wantN := make([]int, len(ops))
		wantScan := make([][]int64, len(ops))
		for i, op := range ops {
			if op.kind == 3 {
				var w []int64
				for k := op.lo; k < op.hi; k++ {
					if oracle[k] {
						w = append(w, k)
					}
				}
				wantScan[i] = w
				continue
			}
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
						wantN[i]++
					}
				case 1:
					if oracle[v] {
						delete(oracle, v)
						wantN[i]++
					}
				case 2:
					if oracle[v] {
						wantN[i]++
					}
				}
			}
		}
		for _, im := range impls {
			s := im.New()
			b, okB := s.(Batcher)
			r, okR := s.(Ranger)
			if !okB || !okR {
				t.Fatalf("%s: skip variant lost its native batch/scan surface", im.Name)
			}
			for i, op := range ops {
				if op.kind == 3 {
					got := r.RangeScan(op.lo, op.hi)
					if len(got) != len(wantScan[i]) {
						t.Fatalf("%s: op %d RangeScan(%d, %d) = %v, oracle says %v",
							im.Name, i, op.lo, op.hi, got, wantScan[i])
					}
					for j := range got {
						if got[j] != wantScan[i][j] {
							t.Fatalf("%s: op %d RangeScan(%d, %d) = %v, oracle says %v",
								im.Name, i, op.lo, op.hi, got, wantScan[i])
						}
					}
					continue
				}
				var got int
				switch op.kind {
				case 0:
					got = b.InsertAll(op.keys)
				case 1:
					got = b.RemoveAll(op.keys)
				case 2:
					got = b.ContainsAll(op.keys)
				}
				if got != wantN[i] {
					t.Fatalf("%s: op %d (kind %d, keys %v) = %d, oracle says %d",
						im.Name, i, op.kind, op.keys, got, wantN[i])
				}
			}
			if s.Len() != len(oracle) {
				t.Fatalf("%s: final Len = %d, want %d", im.Name, s.Len(), len(oracle))
			}
			snap := s.Snapshot()
			for i, v := range snap {
				if !oracle[v] {
					t.Fatalf("%s: Snapshot holds %d which the oracle lacks", im.Name, v)
				}
				if i > 0 && snap[i-1] >= v {
					t.Fatalf("%s: Snapshot not strictly ascending: %v", im.Name, snap)
				}
			}
		}
	})
}
