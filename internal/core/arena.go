package core

import (
	"listset/internal/mem"
	"listset/internal/obs"
)

// Arena-backed node lifetimes for VBL (internal/mem): slab allocation,
// per-worker free lists, epoch-based reclamation.
//
// Why reuse is safe here and not in Harris-Michael: recycling a node
// re-introduces ABA for algorithms that draw conclusions from pointer
// *identity* without holding locks — Harris's unlink CAS succeeds
// whenever prev.next still equals a remembered pointer, and a recycled
// node makes that equality stop meaning "same logical node". VBL has
// no unprotected identity CAS: every structural write happens under
// per-node try-locks whose validation re-reads the current list state,
// and the Remove-side validation is by *value* (lockNextAtValue), so a
// successor that was recycled into a new node holding the same value
// is accepted by design — the paper's Section 3.1 argument is exactly
// that such schedules are semantically welcome. The only remaining
// hazard — a wait-free traversal dereferencing a node after reuse — is
// closed by the grace period: every operation pins the epoch for its
// whole duration, and a node recycles only two epochs after its
// retirement, by which point no pin that could have seen it survives.

// WithArena attaches a freshly created default-sized arena, enabling
// slab allocation and epoch-based node recycling.
func WithArena() Option {
	return func(s *VBL) { s.arena = mem.New[node](mem.Options{}) }
}

// NewArena returns an empty VBL set with arena-backed node lifetimes.
func NewArena() *VBL { return NewVariant(WithArena()) }

// ArenaStats reports the arena's allocation/reclamation tallies and
// whether an arena is attached at all.
func (s *VBL) ArenaStats() (mem.Stats, bool) {
	if a := s.arena; a != nil {
		return a.Stats(), true
	}
	return mem.Stats{}, false
}

// newNode returns an initialized, unpublished node holding v: heap
// allocated in GC mode, slab-carved or recycled in arena mode.
func (s *VBL) newNode(g mem.Guard[node], v int64) *node {
	if !g.Active() {
		if p := s.probes; obs.On(p) {
			p.Inc(obs.EvNodeAlloc, v)
		}
		return &node{val: v}
	}
	n := g.Get()
	// Re-initialize what the node's previous life left behind. The
	// writes are unobservable: the node is unreachable until the
	// successful prev.next store publishes it, and the grace period
	// guarantees no traversal from its previous life still holds it.
	n.val = v
	n.deleted.Store(false)
	n.next.Store(nil)
	return n
}
