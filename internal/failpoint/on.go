//go:build !nofailpoint

package failpoint

// Compiled reports whether failpoint sites are compiled into this
// binary. Build with -tags nofailpoint for the injection-free build the
// overhead regression compares against.
const Compiled = true

// On is the canonical enabled-guard for failpoint sites: it reports
// whether the failpoint set is attached. It inlines to a nil check —
// or, under -tags nofailpoint, to false, deleting the guarded block at
// compile time. Every Do/Fail call in algorithm code sits behind it:
// an unguarded call on a detached (nil) set panics.
func On(s *Set) bool { return s != nil }
