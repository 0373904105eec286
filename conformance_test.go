package listset

import (
	"math/rand"
	"testing"
)

// testModes expands the registry into the test matrix: every algorithm
// in every mode it composes with (plain, arena, sharded, sharded+arena).
// Sharded modes split the test's key range [lo, hi) four ways, so its
// operations cross shard seams. Each entry's Name is the mode's label
// ("vbl-sharded") and its New builds the mode.
func testModes(lo, hi int64) []Impl { return modesOf(Implementations(), lo, hi) }

// modesOf is testModes over the given algorithms.
func modesOf(algos []Impl, lo, hi int64) []Impl {
	var out []Impl
	for _, algo := range algos {
		for _, o := range algo.modes() {
			if o.Shards > 0 {
				o.Shards, o.Lo, o.Hi = 4, lo, hi
			}
			m := algo
			m.Name, m.preset = label(algo.Name, o), o
			m.New = func() Set {
				s, err := algo.Build(o)
				if err != nil {
					panic(err)
				}
				return s
			}
			out = append(out, m)
		}
	}
	return out
}

// forEachMode runs f as a subtest for every entry of testModes(lo, hi).
func forEachMode(t *testing.T, lo, hi int64, f func(t *testing.T, im Impl)) {
	t.Helper()
	for _, im := range testModes(lo, hi) {
		t.Run(im.Name, func(t *testing.T) { f(t, im) })
	}
}

// forEachConcurrentMode is forEachMode restricted to thread-safe
// algorithms.
func forEachConcurrentMode(t *testing.T, lo, hi int64, f func(t *testing.T, im Impl)) {
	t.Helper()
	for _, im := range testModes(lo, hi) {
		if im.ThreadSafe {
			t.Run(im.Name, func(t *testing.T) { f(t, im) })
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, im := range Implementations() {
		got, err := Lookup(im.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", im.Name, err)
		}
		if got.Name != im.Name {
			t.Fatalf("Lookup(%q) resolved to %q", im.Name, got.Name)
		}
		for _, alias := range im.Aliases {
			got, err := Lookup(alias)
			if err != nil {
				t.Fatalf("Lookup(alias %q): %v", alias, err)
			}
			if got.Name != im.Name {
				t.Fatalf("Lookup(alias %q) resolved to %q, want %q", alias, got.Name, im.Name)
			}
		}
	}
	if _, err := Lookup("no-such-list"); err == nil {
		t.Fatal("Lookup of unknown name did not error")
	}
	if _, err := Lookup("VBL"); err != nil {
		t.Fatalf("Lookup should be case-insensitive: %v", err)
	}
}

func TestRegistryConstructorsIndependent(t *testing.T) {
	forEachMode(t, 0, 8, func(t *testing.T, im Impl) {
		a, b := im.New(), im.New()
		a.Insert(7)
		if b.Contains(7) {
			t.Fatal("two instances from the same constructor share state")
		}
	})
}

func TestEmptySet(t *testing.T) {
	forEachMode(t, 0, 8, func(t *testing.T, im Impl) {
		s := im.New()
		if s.Len() != 0 {
			t.Fatalf("Len() of empty set = %d", s.Len())
		}
		if s.Contains(1) {
			t.Fatal("empty set Contains(1) = true")
		}
		if s.Remove(1) {
			t.Fatal("empty set Remove(1) = true")
		}
		if snap := s.Snapshot(); len(snap) != 0 {
			t.Fatalf("empty set Snapshot() = %v", snap)
		}
	})
}

func TestBasicSemantics(t *testing.T) {
	forEachMode(t, 3, 8, func(t *testing.T, im Impl) {
		s := im.New()
		if !s.Insert(5) {
			t.Fatal("Insert(5) on empty set = false")
		}
		if s.Insert(5) {
			t.Fatal("second Insert(5) = true")
		}
		if !s.Contains(5) {
			t.Fatal("Contains(5) = false after insert")
		}
		if s.Contains(4) || s.Contains(6) {
			t.Fatal("Contains of absent neighbours = true")
		}
		if !s.Insert(3) || !s.Insert(7) || !s.Insert(4) {
			t.Fatal("fresh inserts returned false")
		}
		wantSnap := []int64{3, 4, 5, 7}
		snap := s.Snapshot()
		if len(snap) != len(wantSnap) {
			t.Fatalf("Snapshot = %v, want %v", snap, wantSnap)
		}
		for i := range wantSnap {
			if snap[i] != wantSnap[i] {
				t.Fatalf("Snapshot = %v, want %v", snap, wantSnap)
			}
		}
		if !s.Remove(4) {
			t.Fatal("Remove(4) = false")
		}
		if s.Remove(4) {
			t.Fatal("second Remove(4) = true")
		}
		if s.Contains(4) {
			t.Fatal("Contains(4) = true after removal")
		}
		if s.Len() != 3 {
			t.Fatalf("Len = %d, want 3", s.Len())
		}
		// Reinsertion after removal must succeed (exercises logical
		// deletion + value-aware revalidation paths).
		if !s.Insert(4) {
			t.Fatal("reinsert of removed value = false")
		}
		if !s.Contains(4) {
			t.Fatal("Contains(4) = false after reinsert")
		}
	})
}

func TestNegativeKeysAndExtremes(t *testing.T) {
	forEachMode(t, -2, 2, func(t *testing.T, im Impl) {
		s := im.New()
		vals := []int64{MinKey, -12345, -1, 0, 1, 12345, MaxKey}
		for _, v := range vals {
			if !s.Insert(v) {
				t.Fatalf("Insert(%d) = false", v)
			}
		}
		for _, v := range vals {
			if !s.Contains(v) {
				t.Fatalf("Contains(%d) = false", v)
			}
		}
		if s.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(vals))
		}
		snap := s.Snapshot()
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				t.Fatalf("Snapshot not strictly ascending: %v", snap)
			}
		}
		for _, v := range vals {
			if !s.Remove(v) {
				t.Fatalf("Remove(%d) = false", v)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("Len after removing all = %d", s.Len())
		}
	})
}

// randomOracle applies steps random operations on keys drawn by key to
// s single-threaded, checking every result against a map, then checks
// Len and that Snapshot is the oracle's contents in ascending order.
func randomOracle(t *testing.T, s Set, seed int64, steps int, key func(*rand.Rand) int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	oracle := map[int64]bool{}
	for i := 0; i < steps; i++ {
		v := key(rng)
		switch rng.Intn(3) {
		case 0:
			want := !oracle[v]
			if got := s.Insert(v); got != want {
				t.Fatalf("step %d: Insert(%d) = %v, want %v", i, v, got, want)
			}
			oracle[v] = true
		case 1:
			want := oracle[v]
			if got := s.Remove(v); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", i, v, got, want)
			}
			delete(oracle, v)
		case 2:
			if got := s.Contains(v); got != oracle[v] {
				t.Fatalf("step %d: Contains(%d) = %v, want %v", i, v, got, oracle[v])
			}
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("final Len = %d, want %d", s.Len(), len(oracle))
	}
	snap := s.Snapshot()
	if len(snap) != len(oracle) {
		t.Fatalf("final Snapshot has %d elements, want %d", len(snap), len(oracle))
	}
	for i, v := range snap {
		if !oracle[v] {
			t.Fatalf("Snapshot contains %d which the oracle lacks", v)
		}
		if i > 0 && snap[i-1] >= v {
			t.Fatalf("Snapshot not strictly ascending: %v", snap)
		}
	}
}

// TestMapOracle drives each implementation single-threaded against a map
// with a long random operation sequence.
func TestMapOracle(t *testing.T) {
	forEachMode(t, -64, 64, func(t *testing.T, im Impl) {
		randomOracle(t, im.New(), 42, 30000, func(rng *rand.Rand) int64 { return int64(rng.Intn(128)) - 64 })
	})
}

// TestShardedBoundaryOracle drives every mode against a map oracle,
// with sharded modes on a tight partition (4 shards over [0, 32),
// boundaries at 8, 16, 24), biasing keys to land on and around the
// shard boundaries and outside the focus range, so routing errors at
// the seams — a key owned by two shards, or by none — surface as
// semantic failures. The unsharded modes run the same program as a
// control.
func TestShardedBoundaryOracle(t *testing.T) {
	// Candidate keys cluster on the boundaries ±1, the focus edges,
	// and a few keys beyond them (clamped to the edge shards).
	candidates := []int64{
		-40, -1, 0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 30, 31, 32, 33, 90,
	}
	forEachMode(t, 0, 32, func(t *testing.T, im Impl) {
		randomOracle(t, im.New(), 7, 20000, func(rng *rand.Rand) int64 { return candidates[rng.Intn(len(candidates))] })
	})
}

// TestGrowShrinkCycles fills and drains the set repeatedly, a pattern
// that exercises unlink-behind-traversal paths.
func TestGrowShrinkCycles(t *testing.T) {
	forEachMode(t, 0, 300, func(t *testing.T, im Impl) {
		s := im.New()
		const n = 300
		for cycle := 0; cycle < 4; cycle++ {
			for i := int64(0); i < n; i++ {
				if !s.Insert(i) {
					t.Fatalf("cycle %d: Insert(%d) = false", cycle, i)
				}
			}
			if s.Len() != n {
				t.Fatalf("cycle %d: Len = %d, want %d", cycle, s.Len(), n)
			}
			// Drain in an order that alternates ends to vary windows.
			for i := int64(0); i < n/2; i++ {
				if !s.Remove(i) || !s.Remove(n-1-i) {
					t.Fatalf("cycle %d: Remove pair %d failed", cycle, i)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("cycle %d: Len after drain = %d", cycle, s.Len())
			}
		}
	})
}
