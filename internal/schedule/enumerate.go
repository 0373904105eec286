package schedule

import (
	"fmt"
	"time"
)

// Scope describes a small-scope exhaustive check: every pair of
// operations drawn from Kinds × Args, over every initial list in
// Initials, all interleavings, in the reference model of each
// algorithm judged.
type Scope struct {
	// Initials are the initial list contents to try.
	Initials [][]int64
	// Args are the operation arguments to try.
	Args []int64
	// Kinds are the operation kinds to try.
	Kinds []OpKind
}

// DefaultScope is the full scope used by cmd/schedcheck -enumerate: two
// concurrent operations of any kind with arguments in {1,2,3} over the
// lists {}, {1}, {2}, {1,2} and {1,3}. At this scope VBL accepts all
// 175,136 correct schedules of the 278,000 generated, while Lazy rejects
// 25,548 of them and Harris-Michael 29,360 (of its adjusted-model
// scope). Walking it for all six algorithms takes about 9 s on a
// 2-vCPU host (TestFullScopeCounts pins the counts).
func DefaultScope() Scope {
	return Scope{
		Initials: [][]int64{{}, {1}, {2}, {1, 2}, {1, 3}},
		Args:     []int64{1, 2, 3},
		Kinds:    []OpKind{OpInsert, OpRemove, OpContains},
	}
}

// QuickScope is a reduced scope small enough for the regular test suite
// while still containing Figure-2-style rejections for Lazy and
// Figure-3-style rejections for Harris-Michael: arguments {1,2} over
// the lists {1} and {1,2}.
func QuickScope() Scope {
	return Scope{
		Initials: [][]int64{{1}, {1, 2}},
		Args:     []int64{1, 2},
		Kinds:    []OpKind{OpInsert, OpRemove, OpContains},
	}
}

// each calls f with every initial list and operation pair of the scope.
func (sc Scope) each(f func(initial []int64, ops []OpSpec)) {
	for _, initial := range sc.Initials {
		for _, k0 := range sc.Kinds {
			for _, a0 := range sc.Args {
				for _, k1 := range sc.Kinds {
					for _, a1 := range sc.Args {
						f(initial, []OpSpec{{Kind: k0, Arg: a0}, {Kind: k1, Arg: a1}})
					}
				}
			}
		}
	}
}

// OptimalityReport summarizes an exhaustive small-scope run of
// Definition 2 for one algorithm.
type OptimalityReport struct {
	Algorithm Algorithm
	// Schedules is the number of distinct schedules generated (|§|).
	Schedules int
	// Correct is the number of correct schedules among them.
	Correct int
	// Accepted is how many correct schedules the algorithm accepts.
	Accepted int
	// Unsound is how many incorrect schedules the algorithm accepts;
	// Theorems 1 and 2 say none.
	Unsound int
	// RejectedExamples holds up to MaxExamples rejected correct
	// schedules, UnsoundExamples up to MaxExamples accepted incorrect
	// ones, for diagnostics.
	RejectedExamples, UnsoundExamples []Schedule
	// Elapsed is the wall time of the walk over the algorithm's model,
	// shared by every algorithm judged in it.
	Elapsed time.Duration
}

// MaxExamples caps the examples retained in a report.
const MaxExamples = 3

// Optimal reports whether the algorithm accepted every correct schedule
// in the scope.
func (r OptimalityReport) Optimal() bool { return r.Accepted == r.Correct }

// String renders the report one line.
func (r OptimalityReport) String() string {
	return fmt.Sprintf("%s: accepted %d/%d correct schedules (|§|=%d)",
		r.Algorithm, r.Accepted, r.Correct, r.Schedules)
}

// CheckOptimality walks every schedule of every pair of operations in
// the scope once per reference model, filters the correct ones with the
// oracle, and counts which schedules each algorithm accepts — the
// empirical Theorem 3, and Theorems 1 and 2 through Unsound. The
// reports follow algs' order.
func CheckOptimality(sc Scope, algs ...Algorithm) []OptimalityReport {
	reps := make([]OptimalityReport, len(algs))
	for _, adjusted := range []bool{false, true} {
		var idx []int
		var model []Algorithm
		for i, alg := range algs {
			if alg.Adjusted() == adjusted {
				idx = append(idx, i)
				model = append(model, alg)
			}
		}
		if len(model) == 0 {
			continue
		}
		start := time.Now()
		schedules, correct := 0, 0
		sc.each(func(initial []int64, ops []OpSpec) {
			explore(initial, ops, adjusted, model, func(s Schedule, accepted []bool) bool {
				schedules++
				results, _ := s.Results()
				ok, _ := serializableAndLinearizable(s, results)
				if ok {
					correct++
				}
				for j, acc := range accepted {
					r := &reps[idx[j]]
					switch {
					case ok && acc:
						r.Accepted++
					case ok && len(r.RejectedExamples) < MaxExamples:
						r.RejectedExamples = append(r.RejectedExamples, s)
					case acc:
						r.Unsound++
						if len(r.UnsoundExamples) < MaxExamples {
							r.UnsoundExamples = append(r.UnsoundExamples, s)
						}
					}
				}
				return true
			})
		})
		elapsed := time.Since(start)
		for _, i := range idx {
			reps[i].Algorithm = algs[i]
			reps[i].Schedules, reps[i].Correct = schedules, correct
			reps[i].Elapsed = elapsed
		}
	}
	return reps
}
