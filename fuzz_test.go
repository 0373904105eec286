package listset

import (
	"testing"

	"listset/internal/mem"
)

// Fuzz targets interpret a byte string as a program of set operations
// and cross-check every implementation against a map oracle (sequential
// fuzzing) and against each other. They run over the seed corpus in
// ordinary `go test` runs and explore further with `go test -fuzz`.

// decodeOp maps two bytes to (operation, key).
func decodeOp(op, key byte) (kind int, k int64) {
	return int(op % 3), int64(key % 32)
}

func seedCorpus(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 5, 2, 5, 1, 5, 1, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 2, 2, 1, 2, 3})
	// Insert/remove churn on one key.
	churn := make([]byte, 0, 64)
	for i := 0; i < 16; i++ {
		churn = append(churn, 0, 7, 1, 7)
	}
	f.Add(churn)
	// Ascending then descending inserts.
	var sweep []byte
	for i := byte(0); i < 30; i++ {
		sweep = append(sweep, 0, i)
	}
	for i := byte(30); i > 0; i-- {
		sweep = append(sweep, 1, i-1)
	}
	f.Add(sweep)
}

// runOracle runs the program on s rounds times over and requires the
// result stream to match a map oracle exactly, with an ascending final
// snapshot of the oracle's contents.
func runOracle(t *testing.T, name string, s Set, prog []byte, rounds int) {
	t.Helper()
	oracle := map[int64]bool{}
	for round := 0; round < rounds; round++ {
		for i := 0; i+1 < len(prog); i += 2 {
			kind, k := decodeOp(prog[i], prog[i+1])
			switch kind {
			case 0:
				want := !oracle[k]
				if got := s.Insert(k); got != want {
					t.Fatalf("%s: round %d step %d Insert(%d) = %v, want %v", name, round, i/2, k, got, want)
				}
				oracle[k] = true
			case 1:
				want := oracle[k]
				if got := s.Remove(k); got != want {
					t.Fatalf("%s: round %d step %d Remove(%d) = %v, want %v", name, round, i/2, k, got, want)
				}
				delete(oracle, k)
			default:
				if got := s.Contains(k); got != oracle[k] {
					t.Fatalf("%s: round %d step %d Contains(%d) = %v, want %v", name, round, i/2, k, got, oracle[k])
				}
			}
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("%s: final Len = %d, want %d", name, s.Len(), len(oracle))
	}
	snap := s.Snapshot()
	if len(snap) != len(oracle) {
		t.Fatalf("%s: final Snapshot size %d, want %d", name, len(snap), len(oracle))
	}
	for i, v := range snap {
		if !oracle[v] {
			t.Fatalf("%s: Snapshot holds %d which the oracle lacks", name, v)
		}
		if i > 0 && snap[i-1] >= v {
			t.Fatalf("%s: Snapshot not strictly ascending: %v", name, snap)
		}
	}
}

// fuzzModesVsOracle runs each fuzzed program on the test matrix's
// sharded or unsharded modes over the fuzz key domain [0, 32), and
// requires every result stream to match the map oracle exactly.
func fuzzModesVsOracle(f *testing.F, sharded bool) {
	seedCorpus(f)
	var impls []Impl
	for _, im := range testModes(0, 32) {
		if (im.preset.Shards > 0) == sharded {
			impls = append(impls, im)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip()
		}
		for _, im := range impls {
			runOracle(t, im.Name, im.New(), prog, 1)
		}
	})
}

// FuzzSequentialVsOracle runs the program on every unsharded mode.
func FuzzSequentialVsOracle(f *testing.F) { fuzzModesVsOracle(f, false) }

// FuzzShardedVsOracle runs the program on every sharded mode, with the
// partition squeezed onto the fuzz key domain (4 shards over [0, 32),
// boundaries 8/16/24), so fuzzed op sequences constantly cross shard
// seams and the snapshot must stay ascending across shards.
func FuzzShardedVsOracle(f *testing.F) { fuzzModesVsOracle(f, true) }

// FuzzArenaVsOracle runs the program on every algorithm's arena mode
// with the op stream repeated enough times that retired nodes cross
// their two-epoch grace period and recycle mid-program — the result
// stream must keep matching the map oracle through reuse, and the
// arena's conservation invariant (Recycled <= Retired) must hold at
// the end.
func FuzzArenaVsOracle(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			t.Skip()
		}
		for _, im := range Implementations() {
			if im.NewArena == nil {
				continue
			}
			s := im.NewArena()
			// Repeat the program: the first pass seeds retirements, the
			// later passes run against recycled nodes.
			runOracle(t, im.Name+"-arena", s, prog, 6)
			a, ok := s.(interface{ ArenaStats() (mem.Stats, bool) })
			if !ok {
				t.Fatalf("%s-arena: no ArenaStats", im.Name)
			}
			st, ok := a.ArenaStats()
			if !ok {
				t.Fatalf("%s-arena: ArenaStats reports no arena", im.Name)
			}
			if st.Recycled > st.Retired {
				t.Fatalf("%s-arena: Recycled %d > Retired %d", im.Name, st.Recycled, st.Retired)
			}
		}
	})
}

// FuzzImplementationsAgree splits the program into two goroutine-bound
// halves operating on DISJOINT key halves concurrently, then checks all
// modes converge to the same final contents.
func FuzzImplementationsAgree(f *testing.F) {
	seedCorpus(f)
	impls := testModes(0, 32)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			t.Skip()
		}
		var finals [][]int64
		for _, im := range impls {
			if !im.ThreadSafe {
				continue
			}
			s := im.New()
			done := make(chan struct{}, 2)
			// Two workers, keys partitioned by parity so the outcome is
			// deterministic regardless of interleaving.
			for w := 0; w < 2; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					for i := 0; i+1 < len(prog); i += 2 {
						kind, k := decodeOp(prog[i], prog[i+1])
						if int(k%2) != w {
							continue
						}
						switch kind {
						case 0:
							s.Insert(k)
						case 1:
							s.Remove(k)
						default:
							s.Contains(k)
						}
					}
				}(w)
			}
			<-done
			<-done
			finals = append(finals, s.Snapshot())
		}
		for i := 1; i < len(finals); i++ {
			if len(finals[i]) != len(finals[0]) {
				t.Fatalf("final contents diverge: %v vs %v", finals[0], finals[i])
			}
			for j := range finals[i] {
				if finals[i][j] != finals[0][j] {
					t.Fatalf("final contents diverge: %v vs %v", finals[0], finals[i])
				}
			}
		}
	})
}
