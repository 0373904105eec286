//go:build race

package skiplist

// raceEnabled reports whether the race detector is active. sync.Pool
// drops buffers at random under it, so allocation counts are only
// checked without it.
const raceEnabled = true
