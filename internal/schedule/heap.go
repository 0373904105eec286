// Package schedule is an executable model of Section 2 of the paper:
// concurrency measured as the set of accepted schedules of the
// sequential list code.
//
// A *schedule* is an interleaving of the shared-memory steps (reads,
// writes, node creations — plus logical-deletion marks in the adjusted
// model used for Harris-Michael) that the sequential implementation LL
// of the set type performs. The package provides:
//
//   - an abstract heap of list nodes and the event vocabulary
//     (heap.go, event.go);
//   - step machines for the sequential code and for six algorithms
//     (VBL, Lazy, Harris-Michael, coarse, hand-over-hand, optimistic),
//     each a comparable register file over the heap (seq.go,
//     machines.go, *_machine.go);
//   - one explorer: a depth-first walk over the tree of schedules that
//     generates § and judges every algorithm on each schedule in the
//     same pass, carrying per tree node the set of each algorithm's
//     configurations that can export the prefix; Accepts is the same
//     set fold along one schedule (explore.go, generate.go);
//   - the correctness oracle of Definition 1: local serializability
//     w.r.t. LL plus linearizability of every extension σ̄(v)
//     (oracle.go);
//   - the two counterexample schedules of the paper, Figure 2 (rejected
//     by Lazy) and Figure 3 (rejected by Harris-Michael), the
//     small-scope exhaustive check that VBL accepts every correct
//     schedule, the free-running deadlock/livelock check and the
//     lifting of captured traces into schedules (figures.go,
//     enumerate.go, progress.go, lift.go).
//
// Configurations are fixed-size values: a schedule has at most maxOps
// operations and its heap at most maxNodes nodes.
package schedule

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies an abstract list node. The head is always node 0
// and the tail node 1; initial elements get 2, 3, ... and nodes created
// during a schedule continue the sequence, so a schedule and any
// execution matched against it agree on node identities by
// construction.
type NodeID int8

// Head and Tail are the sentinel nodes of every abstract list.
const (
	Head NodeID = 0
	Tail NodeID = 1
	// None is the null node reference.
	None NodeID = -1
)

// Sentinel values held by head and tail.
const (
	MinVal = math.MinInt64
	MaxVal = math.MaxInt64
)

// maxNodes bounds a heap: the sentinels, the initial elements and one
// node per insert. A configuration is a fixed-size value, so a
// schedule's heap must fit it.
const maxNodes = 10

// nodeState is the abstract state of one node.
type nodeState struct {
	val     int64
	next    NodeID
	deleted bool // logical-deletion mark (adjusted model / VBL metadata)
	lock    int8 // owning op id + 1; 0 = free (VBL/Lazy metadata)
}

// Heap is the abstract shared memory: a fixed array of list nodes. It
// is a comparable value, so copying it is an assignment and it can be
// part of a map key.
type Heap struct {
	nodes [maxNodes]nodeState
	n     NodeID // next fresh node id
}

// NewHeap builds a heap holding a sorted list with the given initial
// element values (which must be strictly ascending; duplicates panic).
func NewHeap(initial []int64) *Heap {
	h := &Heap{n: 2}
	h.nodes[Head] = nodeState{val: MinVal}
	h.nodes[Tail] = nodeState{val: MaxVal, next: None}
	prev := Head
	for i, v := range initial {
		if i > 0 && initial[i-1] >= v {
			panic(fmt.Sprintf("schedule: initial values not strictly ascending: %v", initial))
		}
		id := h.NewNode(v, None)
		h.nodes[prev].next = id
		prev = id
	}
	h.nodes[prev].next = Tail
	return h
}

// node returns the state of id, panicking on dangling references —
// schedules are closed systems, so a dangling ID is a bug in this
// package, not an input error.
func (h *Heap) node(id NodeID) *nodeState {
	if id < 0 || id >= h.n {
		panic(fmt.Sprintf("schedule: dangling node id %d", id))
	}
	return &h.nodes[id]
}

// Val returns the value stored at id.
func (h *Heap) Val(id NodeID) int64 { return h.node(id).val }

// Next returns the successor of id.
func (h *Heap) Next(id NodeID) NodeID { return h.node(id).next }

// Deleted reports the logical-deletion mark of id.
func (h *Heap) Deleted(id NodeID) bool { return h.node(id).deleted }

// SetNext writes the successor pointer of id.
func (h *Heap) SetNext(id, target NodeID) { h.node(id).next = target }

// SetDeleted sets the logical-deletion mark of id.
func (h *Heap) SetDeleted(id NodeID) { h.node(id).deleted = true }

// NewNode allocates a fresh exported node.
func (h *Heap) NewNode(val int64, next NodeID) NodeID {
	if h.n == maxNodes {
		panic(fmt.Sprintf("schedule: heap holds at most %d nodes", maxNodes))
	}
	id := h.n
	h.n++
	h.nodes[id] = nodeState{val: val, next: next}
	return id
}

// TryLock acquires id's lock for op if free, reporting success.
func (h *Heap) TryLock(id NodeID, op int) bool {
	n := h.node(id)
	if n.lock != 0 {
		return false
	}
	n.lock = int8(op + 1)
	return true
}

// LockedBy returns the op holding id's lock, or -1 if free.
func (h *Heap) LockedBy(id NodeID) int { return int(h.node(id).lock) - 1 }

// Unlock releases id's lock, which must be held by op.
func (h *Heap) Unlock(id NodeID, op int) {
	n := h.node(id)
	if int(n.lock) != op+1 {
		panic(fmt.Sprintf("schedule: op %d unlocking node %d held by %d", op, id, n.lock-1))
	}
	n.lock = 0
}

// Reachable returns the values reachable from head, in list order,
// excluding sentinels. If liveOnly is set, logically deleted nodes are
// skipped (the adjusted model's notion of membership).
func (h *Heap) Reachable(liveOnly bool) []int64 {
	var out []int64
	seen := map[NodeID]bool{}
	for id := h.node(Head).next; id != Tail && id != None; id = h.node(id).next {
		if seen[id] {
			// A cycle can arise in incorrect schedules; membership is
			// whatever was collected up to the repeat.
			break
		}
		seen[id] = true
		n := h.node(id)
		if liveOnly && n.deleted {
			continue
		}
		out = append(out, n.val)
	}
	return out
}

// Members returns Reachable(liveOnly) as a set.
func (h *Heap) Members(liveOnly bool) map[int64]bool {
	m := map[int64]bool{}
	for _, v := range h.Reachable(liveOnly) {
		m[v] = true
	}
	return m
}

// Dump renders the reachable chain for debugging.
func (h *Heap) Dump() string {
	s := "head"
	seen := map[NodeID]bool{}
	for id := h.node(Head).next; id != None; id = h.node(id).next {
		if seen[id] {
			s += " -> CYCLE"
			break
		}
		seen[id] = true
		if id == Tail {
			s += " -> tail"
			break
		}
		n := h.node(id)
		if n.deleted {
			s += fmt.Sprintf(" -> [X%d=%d del]", id, n.val)
		} else {
			s += fmt.Sprintf(" -> [X%d=%d]", id, n.val)
		}
	}
	return s
}

// sortedKeys is a helper for deterministic iteration in tests.
func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
