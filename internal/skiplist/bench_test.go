package skiplist

import "testing"

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
	for _, mode := range []struct {
		name string
		mk   func() *VB
	}{{"gc", NewVB}, {"arena", NewVBArena}} {
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
