// Seeded-bad corpus for the hotalloc analyzer.
package hotalloc

type node struct {
	val  int64
	next *node
}

type list struct {
	head *node
}

// Insert is hot by name: the composite-literal allocation and the
// capturing closure are both flagged.
func (l *list) Insert(v int64) bool {
	n := &node{val: v} // want "allocates on the hot path Insert"
	sink = func() {    // want "closure captures"
		_ = n
	}
	return n != nil
}

// find is hot by name: new(T) is the same allocation spelled
// differently.
func (l *list) find(v int64) *node {
	spare := new(node) // want "new"
	spare.val = v
	return spare
}

// lockWindow is hot by prefix.
func (l *list) lockWindow(v int64) *node {
	return &node{val: v} // want "allocates on the hot path lockWindow"
}

// Remove is hot, but its allocation is the sanctioned one — the
// suppression silences the finding, which is the escape hatch real
// insert paths use.
func (l *list) Remove(v int64) *node {
	//lint:ignore hotalloc the removal tombstone is an intentional allocation for this corpus
	return &node{val: v}
}

// ---- true negatives ----

var sink func()

// Contains allocates nothing: plain traversal.
func (l *list) Contains(v int64) bool {
	for curr := l.head; curr != nil; curr = curr.next {
		if curr.val == v {
			return true
		}
	}
	return false
}

// validate uses a value composite literal that never has its address
// taken — stack allocated, not flagged.
func validate(prev, curr *node) bool {
	probe := node{val: curr.val}
	return prev.val < probe.val
}

// traverse runs a closure that captures nothing from traverse itself
// (parameters of the literal and package globals are fine).
func traverse(visit func(*node)) {
	each := func(n *node) {
		sink = nil
		visit2(n)
	}
	_ = each
}

func visit2(*node) {}

// helper is not hot: it may allocate freely.
func helper(v int64) *node {
	return &node{val: v}
}

// InsertAll is hot by batch-surface name: a per-window allocation in
// the amortized pass is flagged like any other hot path.
func (l *list) InsertAll(keys []int64) int {
	n := &node{val: 0} // want "allocates on the hot path InsertAll"
	_ = n
	return len(keys)
}

// RangeScan is hot by batch-surface name: the capturing closure forces
// a heap allocation per scan.
func (l *list) RangeScan(lo, hi int64) []int64 {
	sink = func() { // want "closure captures"
		_ = lo
	}
	_ = hi
	return nil
}

// RemoveAll allocates nothing: batch passes that reuse pooled scratch
// stay clean.
func (l *list) RemoveAll(keys []int64) int {
	n := 0
	for range keys {
		n++
	}
	return n
}

// ---- sharded-façade entry points (DESIGN.md §8) ----

type router struct {
	bounds []int64
}

// shardOf is hot by name: the routing decision runs on every
// operation, so a spilled allocation here taxes the whole façade.
func (r *router) shardOf(k int64) *node {
	return &node{val: k} // want "allocates on the hot path shardOf"
}

// rebalance is NOT hot: the migrator may allocate its new generation.
func (r *router) rebalance(n int) []*node {
	out := make([]*node, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &node{val: int64(i)})
	}
	return out
}

// ---- skip-list entry points (DESIGN.md §15) ----

type towerList struct {
	head *node
}

// newTower is hot by skip-list name: it runs on every insert attempt,
// so the heap path must be the deliberate, suppressed one.
func (l *towerList) newTower(v int64, h int) *node {
	return &node{val: v} // want "allocates on the hot path newTower"
}

// findFrom is hot by skip-list name: the finger-seeded descent is the
// batch pass's inner loop.
func (l *towerList) findFrom(v int64) *node {
	spare := new(node) // want "new"
	spare.val = v
	return spare
}

// sweep is hot by skip-list name: it runs on every remove.
func (l *towerList) sweep(n *node) {
	sink = func() { // want "closure captures"
		_ = n
	}
}

// Load is hot as a METHOD (a set's bulk population walks the
// structure).
func (l *towerList) Load(keys []int64) int {
	n := &node{val: 0} // want "allocates on the hot path Load"
	_ = n
	return len(keys)
}

// Load as a plain function is NOT hot: a package loader may allocate
// freely.
func Load(paths []string) []*node {
	out := make([]*node, 0, len(paths))
	for range paths {
		out = append(out, &node{})
	}
	return out
}

// Ascend as a method is hot: no allocation here, no finding.
func (l *towerList) Ascend(from int64, yield func(int64) bool) {
	for curr := l.head; curr != nil; curr = curr.next {
		if curr.val >= from && !yield(curr.val) {
			return
		}
	}
}
