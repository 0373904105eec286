//go:build race

package listset

// raceEnabled reports whether the race detector is active. sync.Pool
// drops buffers at random under it, so allocation counts of the pooled
// batch path are only checked without it.
const raceEnabled = true
