package schedule

import "fmt"

// The explorer: one depth-first walk over the tree of schedules.
//
// A node of the tree is a prefix of exported events. It carries the set
// of sequential configurations that exported the prefix; its children
// are the distinct events those configurations export next, so every
// schedule of § is one root-to-leaf path and no schedule is generated
// twice. Per algorithm under test, the node also carries the set of the
// algorithm's configurations that can export the prefix. Every set is
// closed under non-exporting steps and finality choices, so a schedule
// is accepted iff its leaf's set holds a configuration in which every
// operation is done. Schedules that share a prefix share its work, for
// every algorithm at once; Accepts is the same set fold along one path.

// maxOps bounds the operations of one schedule: a configuration holds
// one register file per operation in a fixed array.
const maxOps = 4

// config is one state of a system of machines: the heap plus every
// operation's registers. It is a comparable value.
type config struct {
	h    Heap
	regs [maxOps]regs
}

// system is the constant part of a configuration space: one machine per
// operation, whose registers each config stores.
type system []machine

// newSystem returns alg's machines for ops and their initial
// configuration over the initial list.
func newSystem(alg Algorithm, initial []int64, ops []OpSpec, adjusted bool) (system, config) {
	if len(ops) > maxOps {
		panic(fmt.Sprintf("schedule: at most %d operations, have %d", maxOps, len(ops)))
	}
	c := config{h: *NewHeap(initial)}
	sys := make(system, len(ops))
	for i, spec := range ops {
		sys[i] = newMachine(alg, i, spec, adjusted)
		c.regs[i] = sys[i].regs
	}
	return sys, c
}

// machine returns op i's machine in c.
func (sys system) machine(c *config, i int) machine {
	m := sys[i]
	m.regs = c.regs[i]
	return m
}

// step advances op i of c in place and returns the exported event.
func (sys system) step(c *config, i int) *Event {
	m := sys.machine(c, i)
	ev := m.step(&c.h)
	c.regs[i] = m.regs
	return ev
}

// next returns c with op i advanced by one step, if op i can step: it
// is enabled and its finality is chosen.
func (sys system) next(c config, i int) (config, *Event, bool) {
	m := sys.machine(&c, i)
	if m.needsFinalityChoice() || !m.enabled(&c.h) {
		return c, nil, false
	}
	ev := sys.step(&c, i)
	return c, ev, true
}

// allDone reports whether every operation of c has returned.
func (sys system) allDone(c *config) bool {
	for i := range sys {
		if c.regs[i].pc != aDone {
			return false
		}
	}
	return true
}

// configSet is a set of configurations in insertion order, which keeps
// every walk deterministic.
type configSet struct {
	list []config
	seen map[config]struct{}
}

// add inserts c, resolving each pending finality choice both ways. A
// configuration with a poisoned operation is dropped: it can never
// finish.
func (sys system) add(s *configSet, c config) {
	for i := range sys {
		m := sys.machine(&c, i)
		if m.poisoned() {
			return
		}
		if m.needsFinalityChoice() {
			for _, final := range [...]bool{true, false} {
				m.setFinal(final)
				c.regs[i] = m.regs
				sys.add(s, c)
			}
			return
		}
	}
	if s.seen == nil && len(s.list) < smallSet {
		for k := range s.list {
			if s.list[k] == c {
				return
			}
		}
		s.list = append(s.list, c)
		return
	}
	if s.seen == nil {
		s.seen = make(map[config]struct{}, 2*smallSet)
		for _, d := range s.list {
			s.seen[d] = struct{}{}
		}
	}
	if _, dup := s.seen[c]; dup {
		return
	}
	s.seen[c] = struct{}{}
	s.list = append(s.list, c)
}

// smallSet is the size up to which a configSet finds duplicates by
// scanning its list. Over the full scope, 78 % of the closed sets hold
// at most one configuration and 99 % at most eight; the largest holds
// 240. On a 2-vCPU host, hashing every set made the full-scope walk
// ~50 % slower (a map per set), and scanning every set made the tests
// outside the two large walks ~3.7× slower (quadratic on large sets).
const smallSet = 8

// close adds every configuration reachable from s through non-exporting
// steps.
func (sys system) close(s *configSet) {
	for k := 0; k < len(s.list); k++ {
		for i := range sys {
			if c, ev, ok := sys.next(s.list[k], i); ok && ev == nil {
				sys.add(s, c)
			}
		}
	}
}

// start returns the closed set of c.
func (sys system) start(c config) configSet {
	var s configSet
	sys.add(&s, c)
	sys.close(&s)
	return s
}

// advance returns the closed set of configurations reached from s by a
// step exporting e. Only op e.Op can export e.
func (sys system) advance(s *configSet, e Event) configSet {
	var out configSet
	if e.Op < 0 || e.Op >= len(sys) {
		return out
	}
	for _, c := range s.list {
		if c2, ev, ok := sys.next(c, e.Op); ok && ev != nil && *ev == e {
			sys.add(&out, c2)
		}
	}
	sys.close(&out)
	return out
}

// accepts reports whether s holds a configuration with every operation
// done: the exported prefix is a complete execution.
func (sys system) accepts(s *configSet) bool {
	for k := range s.list {
		if sys.allDone(&s.list[k]) {
			return true
		}
	}
	return false
}

// Accepts reports whether algorithm alg has an execution that exports
// schedule s — Definition 2's acceptance relation. It folds the set of
// alg's configurations that can export each prefix of s, including the
// finality speculation at attempt starts.
//
// The algorithm's reference model must match the schedule's: VBL and
// Lazy are analyzed against the standard sequential code, Harris-Michael
// against the adjusted one, and the sequential "algorithm" against
// either. A model mismatch returns false.
func Accepts(alg Algorithm, s Schedule) bool {
	if alg != AlgSeq && s.Adjusted != alg.Adjusted() {
		return false
	}
	sys, c := newSystem(alg, s.Initial, s.Ops, s.Adjusted)
	set := sys.start(c)
	for _, e := range s.Events {
		if len(set.list) == 0 {
			return false
		}
		set = sys.advance(&set, e)
	}
	return sys.accepts(&set)
}

// explore walks every schedule of ops over initial in the given model
// and judges each against algs. leaf receives the schedule and, per
// algorithm, whether it accepts it; it returns false to stop the walk.
func explore(initial []int64, ops []OpSpec, adjusted bool, algs []Algorithm, leaf func(s Schedule, accepted []bool) bool) {
	seq, c := newSystem(AlgSeq, initial, ops, adjusted)
	x := explorer{initial: initial, ops: ops, adjusted: adjusted, leaf: leaf, seq: seq}
	sets := make([]configSet, len(algs))
	for a, alg := range algs {
		sys, c := newSystem(alg, initial, ops, adjusted)
		x.algs = append(x.algs, sys)
		sets[a] = sys.start(c)
	}
	x.walk(seq.start(c), sets, 0)
}

// explorer is the state of one explore walk.
type explorer struct {
	initial  []int64
	ops      []OpSpec
	adjusted bool
	leaf     func(Schedule, []bool) bool
	seq      system
	algs     []system
	events   []Event // the current prefix
	stopped  bool
}

// walk visits the subtree below the current prefix, given the prefix's
// sequential set, its per-algorithm sets and how many ops returned.
func (x *explorer) walk(seq configSet, sets []configSet, returns int) {
	if returns == len(x.ops) {
		accepted := make([]bool, len(sets))
		for a := range sets {
			accepted[a] = x.algs[a].accepts(&sets[a])
		}
		x.stopped = !x.leaf(Schedule{
			Initial:  append([]int64(nil), x.initial...),
			Ops:      append([]OpSpec(nil), x.ops...),
			Adjusted: x.adjusted,
			Events:   append([]Event(nil), x.events...),
		}, accepted)
		return
	}
	// The children, in order of first export.
	type child struct {
		e   Event
		seq configSet
	}
	var kids []child
	for _, c := range seq.list {
		for i := range x.ops {
			c2, ev, ok := x.seq.next(c, i)
			if !ok || ev == nil {
				continue
			}
			k := 0
			for k < len(kids) && kids[k].e != *ev {
				k++
			}
			if k == len(kids) {
				kids = append(kids, child{e: *ev})
			}
			x.seq.add(&kids[k].seq, c2)
		}
	}
	for k := range kids {
		e, kid := kids[k].e, &kids[k].seq
		x.seq.close(kid)
		next := make([]configSet, len(sets))
		for a := range sets {
			if len(sets[a].list) > 0 {
				next[a] = x.algs[a].advance(&sets[a], e)
			}
		}
		r := returns
		if e.Kind == EvReturn {
			r++
		}
		x.events = append(x.events, e)
		x.walk(*kid, next, r)
		x.events = x.events[:len(x.events)-1]
		if x.stopped {
			return
		}
	}
}
