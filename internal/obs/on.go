//go:build !obsoff

package obs

// Compiled reports whether probe sites are compiled into this binary.
// Build with -tags obsoff for the probe-free build the overhead
// regression compares against.
const Compiled = true

// On is the canonical enabled-guard for probe sites: it reports
// whether the probe pointer (a *Probes or *Recorder) is attached. It
// inlines to a nil check — or, under -tags obsoff, to false, deleting
// the guarded block at compile time. An unguarded probe call on a
// detached (nil) pointer panics.
func On[T any](p *T) bool { return p != nil }
