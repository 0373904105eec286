package main

import "testing"

// The disabled-overhead gates check the zero-cost claims of the
// observability and chaos layers: with nothing attached (the default),
// a binary carrying the probe or failpoint sites must not be
// meaningfully slower than one built without them (-tags obsoff and
// -tags nofailpoint delete the sites at compile time). Each guard is a
// nil-check branch on a field already in cache, so any real gap means a
// site leaked onto a hot path behind the wrong guard (an unguarded one
// panics on the detached set first).
//
// The threshold is deliberately loose (25 %): CI machines are noisy and
// the comparison interleaves best-of-3 runs of two subprocess binaries.
// The documented ≤ 2 % figures come from the quiet-machine protocols in
// DESIGN.md §7 and §9; these tests only catch order-of-magnitude
// regressions like an unguarded atomic on the traversal path.

func TestDisabledProbeOverhead(t *testing.T) {
	testDisabledOverhead(t, "obsoff", "disabled probes")
}

func TestDisabledFailpointOverhead(t *testing.T) {
	testDisabledOverhead(t, "nofailpoint", "detached failpoints")
}

// testDisabledOverhead runs the paired gate of the default build
// against the build with tags on the vbl cell.
func testDisabledOverhead(t *testing.T, tags, label string) {
	if testing.Short() {
		t.Skip("builds and times subprocess binaries; skipped with -short")
	}
	dir := t.TempDir()
	self, err := build(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	reading, ok := pair{
		cell:     "-impl vbl -threads 8 -update-ratio 20 -range 2048 -duration 300ms -warmup 100ms -runs 1",
		baseTags: tags, base: tags + " build", test: label, min: 0.75,
	}.run(dir, self)
	if !ok {
		t.Fatalf("%s; a site likely leaked past its guard", reading)
	}
	t.Log(reading)
}
