package lazy

import (
	"listset/internal/mem"
	"listset/internal/obs"
)

// Arena-backed node lifetimes for the Lazy list (internal/mem): slab
// allocation, per-worker free lists, epoch-based reclamation.
//
// Why reuse is safe here (the same argument as core's VBL, adapted):
// Lazy is lock-based — both structural writes (link, mark+unlink)
// happen under prev's and curr's locks after a validation that
// re-reads the *current* marks and adjacency. No conclusion is ever
// drawn from remembered pointer identity without the locks held, so a
// recycled node reappearing at an old address cannot fool an update
// the way it fools Harris's unlink CAS. The wait-free traversals
// (findFrom, Contains, Len, Snapshot) are the remaining hazard: they
// dereference nodes with no locks at all. The epoch pin closes it —
// every operation pins for its whole duration, and a retired node is
// recycled only two epochs later, when every pin that could have
// reached it has provably unpinned.

// NewArena returns an empty Lazy list with arena-backed node
// lifetimes: inserts draw nodes from slab-backed per-worker free
// lists, removed nodes recycle after the epoch grace period.
func NewArena() *List {
	l := New()
	l.arena = mem.New[node](mem.Options{})
	return l
}

// ArenaStats reports the arena's allocation/reclamation tallies and
// whether an arena is attached at all.
func (l *List) ArenaStats() (mem.Stats, bool) {
	if a := l.arena; a != nil {
		return a.Stats(), true
	}
	return mem.Stats{}, false
}

// newNode returns an initialized, unpublished node holding v: heap
// allocated in GC mode, slab-carved or recycled in arena mode.
func (l *List) newNode(g mem.Guard[node], v int64) *node {
	if !g.Active() {
		if p := l.probes; obs.On(p) {
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
	n.marked.Store(false)
	n.next.Store(nil)
	return n
}
