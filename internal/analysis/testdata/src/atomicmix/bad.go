// Seeded-bad corpus for the atomicmix analyzer. Every "// want"
// marker is asserted by TestAnalyzers to be reported at exactly that
// line — and nothing else in the file may be reported.
package atomicmix

import "sync/atomic"

type counter struct {
	hits  int64
	flips int32
	name  string
}

// bump is the field's atomic home: the access that puts hits in the
// program-wide inventory.
func bump(c *counter) {
	atomic.AddInt64(&c.hits, 1)
}

// read is also sanctioned: any sync/atomic access is.
func read(c *counter) int64 {
	return atomic.LoadInt64(&c.hits)
}

// flip inventories a second field on another type width.
func flip(c *counter) {
	atomic.StoreInt32(&c.flips, 1)
}

// plainRead races with bump on every platform the memory model does
// not promise single-copy atomicity for.
func plainRead(c *counter) int64 {
	return c.hits // want "mixed atomic/plain access"
}

// plainWrite is the classic "it's under the lock anyway" bug.
func plainWrite(c *counter) {
	c.hits++ // want "mixed atomic/plain access"
}

// escape leaks the address outside sync/atomic: a plain access
// waiting to happen.
func escape(c *counter) *int64 {
	return &c.hits // want "mixed atomic/plain access"
}

// plainFlip mixes on the second inventoried field.
func plainFlip(c *counter) bool {
	return c.flips == 1 // want "mixed atomic/plain access"
}

// okPlain touches a field with no atomic history: no finding.
func okPlain(c *counter) string {
	return c.name
}

// ---- control-plane shapes ----

// migrator mirrors a control plane's routing watermark and backoff
// ceiling: both are written with function-style atomics and must never
// be read plainly from the routing or lock paths.
type migrator struct {
	watermark int64
	ceiling   int32
}

// advance is the watermark's atomic home (the migrator publishes it
// under the stripes).
func advance(m *migrator, w int64) {
	atomic.StoreInt64(&m.watermark, w)
}

// widen is the ceiling's atomic home (an additive step).
func widen(m *migrator) {
	atomic.AddInt32(&m.ceiling, 1)
}

// route reads the watermark plainly: an op racing the migrator would
// tear or reorder the routing decision.
func route(m *migrator, k int64) bool {
	return k < m.watermark // want "mixed atomic/plain access"
}

// spin reads the ceiling plainly inside the lock loop.
func spin(m *migrator) bool {
	return m.ceiling > 0 // want "mixed atomic/plain access"
}

// snapshotOK reads both through sync/atomic: sanctioned, no finding.
func snapshotOK(m *migrator) (int64, int32) {
	return atomic.LoadInt64(&m.watermark), atomic.LoadInt32(&m.ceiling)
}
