// Seeded-bad corpus for the by-value lock-copy invariant, checked by
// go vet's copylocks pass: trylock.SpinLock has pointer-receiver
// Lock/Unlock, and every sync/atomic type carries a noCopy sentinel,
// so vet treats both as locks. The // want fragments are vet's
// messages.
package copylock

import (
	"sync/atomic"
	"unsafe"

	"listset/internal/trylock"
)

type node struct {
	val  int64
	next atomic.Pointer[node]
	lock trylock.SpinLock
}

// lockOnly carries a try-lock and no atomics.
type lockOnly struct {
	lock trylock.SpinLock
}

// atomicOnly has no lock but still must not be copied: its atomics
// detach.
type atomicOnly struct {
	count atomic.Int64
}

// byValueParam receives a detached copy of the node and its lock.
func byValueParam(n node) int64 { // want "byValueParam passes lock by value"
	return n.val
}

// byValueResult returns a detached copy.
func byValueResult(p *node) node {
	return *p // want "return copies lock value"
}

// copyAssign copies through a dereference.
func copyAssign(p *node) int64 {
	n := *p // want "assignment copies lock value"
	return n.val
}

// copyArg passes a copy into a call.
func copyArg(p *node) int64 {
	return byValueParam(*p) // want "call of byValueParam copies lock value"
}

// rangeCopy copies one element per iteration.
func rangeCopy(ns []node) int64 {
	var s int64
	for _, n := range ns { // want "range var n copies lock"
		s += n.val
	}
	return s
}

// copyTrylock shows a bare try-lock copy is caught.
func copyTrylock(l *lockOnly) {
	c := *l // want "assignment copies lock value"
	_ = c.lock.TryLock()
}

// copyAtomic shows the atomic-only case is caught too.
func copyAtomic(a *atomicOnly) {
	c := *a // want "assignment copies lock value"
	_ = c.count.Load()
}

// ---- true negatives ----

// okPointer passes by pointer everywhere.
func okPointer(p *node) *trylock.SpinLock {
	return &p.lock
}

// construct builds fresh values; composite literals are not copies.
func construct(v int64) *node {
	n := &node{val: v}
	return n
}

// okIndex ranges by index instead of copying elements.
func okIndex(ns []node) int64 {
	var s int64
	for i := range ns {
		s += ns[i].val
	}
	return s
}

// okUnsafe measures lock-bearing types with the unsafe operators;
// these are compile-time type measurements, not run-time copies (the
// layout tests of internal/core and internal/lazy rely on this).
func okUnsafe(p *node) uintptr {
	var n node
	return unsafe.Sizeof(n) + unsafe.Offsetof(p.lock) + unsafe.Alignof(n.lock)
}
