package skiplist

import (
	"math/rand"
	"testing"
)

var benchFound bool

// BenchmarkVBContains prices the skip index's per-key read at one
// thread: a Contains over 1<<20 bulk-loaded keys (~40 MB of towers at
// ~38 B/key: beyond L2, 4 MiB per core on the reference host), half of
// the probes hitting, in GC and arena mode. It reports ns/op and
// B/op; it has no gate.
func BenchmarkVBContains(b *testing.B) {
	const n = 1 << 20
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 2
	}
	for _, mode := range vbModes {
		b.Run(mode.name, func(b *testing.B) {
			s := mode.mk()
			s.Load(keys)
			x := uint64(0x9E3779B97F4A7C15)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				benchFound = s.Contains(int64(x % (2 * n)))
			}
		})
	}
}

var benchCount int

// BenchmarkVBContainsAll prices ContainsAll's lane-group descents at
// one thread: 64-key batches, half of them hitting, drawn from a random
// 4096-key window of 1<<20 keys, in GC and arena mode. It reports
// ns/key; it has no gate.
//
// The set is churned before timing — a random half of the keys
// removed and re-inserted in random order — so that the towers no
// longer sit in key order, as under a running workload (arena
// recycling scatters them). On a freshly loaded set the towers lie in
// key order, the hardware prefetcher streams the descents, and
// interleaving the lanes' misses buys little: ~10 % fewer ns/key than
// one key at a time there, against ~30 % on the churned set, on a
// 2-vCPU Xeon with a 300 MiB L3.
func BenchmarkVBContainsAll(b *testing.B) {
	const (
		n      = 1 << 20
		batch  = 64
		window = 4096
	)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 2
	}
	for _, mode := range vbModes {
		b.Run(mode.name, func(b *testing.B) {
			s := mode.mk()
			s.Load(keys)
			rng := rand.New(rand.NewSource(1))
			churn(s, keys, rng)
			ks := make([]int64, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := 2 * rng.Int63n(n-window)
				for j := range ks {
					ks[j] = lo + rng.Int63n(2*window)
				}
				benchCount = s.ContainsAll(ks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
		})
	}
}

// churn removes a random half of keys from s and re-inserts them in
// random order, so that the towers no longer sit in key order, as
// under a running workload (arena recycling scatters them).
func churn(s *VB, keys []int64, rng *rand.Rand) {
	half := make([]int64, 0, len(keys)/2)
	for _, i := range rng.Perm(len(keys))[:len(keys)/2] {
		half = append(half, keys[i])
	}
	for _, k := range half {
		s.Remove(k)
	}
	rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
	for _, k := range half {
		s.Insert(k)
	}
}

// BenchmarkVBUpdateAll prices InsertAll and RemoveAll per key at one
// thread: 64-key batches drawn from a random 4096-key window of 1<<20
// loaded keys, in GC and arena mode, on a freshly loaded and on a
// churned layout (see BenchmarkVBContainsAll). The batch keys fall
// between the loaded ones, so each is inserted and then removed again:
// every key does its full update work and the loaded towers keep their
// layout. It reports ns per batch key and call; it has no gate.
func BenchmarkVBUpdateAll(b *testing.B) {
	const (
		n      = 1 << 20
		batch  = 64
		window = 4096
	)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 2
	}
	for _, mode := range vbModes {
		for _, layout := range []string{"fresh", "churned"} {
			b.Run(mode.name+"/"+layout, func(b *testing.B) {
				s := mode.mk()
				s.Load(keys)
				rng := rand.New(rand.NewSource(1))
				if layout == "churned" {
					churn(s, keys, rng)
				}
				ks := make([]int64, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := 2 * rng.Int63n(n-window)
					for j := range ks {
						ks[j] = lo + 2*rng.Int63n(window) + 1
					}
					benchCount = s.InsertAll(ks) + s.RemoveAll(ks)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*batch), "ns/key")
			})
		}
	}
}
