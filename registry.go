package listset

import (
	"fmt"
	"sort"
	"strings"

	"listset/internal/shard"
)

// Impl describes one registered algorithm, for use by the benchmark
// harness, the CLI tools and cross-implementation tests. Sharding and
// arenas are modes that compose with the algorithm through Build; the
// batch, scan and bulk-load surfaces are found by type assertion on a
// built set (AsBatcher, AsRanger, AsLoader).
type Impl struct {
	// Name is the canonical identifier accepted by the tools' -impl
	// flag. Lookup of a composed name (see Preset) keeps that name as
	// the label.
	Name string
	// Aliases are additional accepted identifiers.
	Aliases []string
	// New constructs a fresh empty instance of the algorithm.
	New func() Set
	// NewArena, when non-nil, constructs the algorithm with
	// arena-backed node lifetimes (internal/mem): slab allocation,
	// per-worker free lists, epoch-based reclamation. Nil means the
	// algorithm has no arena mode (e.g. the lock-free lists, whose
	// identity CAS makes node reuse an ABA hazard).
	NewArena func() Set
	// ThreadSafe reports whether the implementation may be used from
	// multiple goroutines. Only the sequential reference list is not.
	ThreadSafe bool
	// LockFree reports whether the implementation is lock-free (the
	// progress condition, not merely "uses no sync.Mutex").
	LockFree bool
	// Desc is a one-line human description used in tool output.
	Desc string

	preset Options
}

// Options selects the modes Build composes with an algorithm.
type Options struct {
	// Shards, when positive, puts the algorithm behind the
	// order-preserving range partitioner of internal/shard: Shards
	// independent lists (rounded up to a power of two) splitting the
	// focus range [Lo, Hi) evenly, with out-of-range keys clamping to
	// the edge shards. Tools pass the workload's key range so
	// traversals walk O(n/S) nodes; Lo = Hi = 0 means the default
	// focus range [0, 65536). The façade adds no locks, so it keeps
	// the algorithm's progress condition.
	Shards int
	Lo, Hi int64
	// Arena builds the lists with NewArena; with Shards, each shard
	// owns a private arena.
	Arena bool
}

// label names an algorithm in the given modes, e.g. "vbl-sharded".
func label(name string, o Options) string {
	if o.Shards > 0 {
		name += "-sharded"
	}
	if o.Arena {
		name += "-arena"
	}
	return name
}

// modes returns the modes the algorithm composes with: plain and
// sharded, plus arena and sharded+arena when it has NewArena. Sharded
// modes carry DefaultShards over the default focus range.
func (im Impl) modes() []Options {
	ms := []Options{{}, {Shards: DefaultShards}}
	if im.NewArena != nil {
		ms = append(ms, Options{Arena: true}, Options{Shards: DefaultShards, Arena: true})
	}
	return ms
}

// Preset returns the modes the name Lookup resolved selects: none for
// an algorithm's own name, {Shards: DefaultShards} for "vbl-sharded",
// {Arena: true} for "vbl-arena". Build(im.Preset()) constructs what
// the name denotes; tools override the fields their flags set.
func (im Impl) Preset() Options { return im.preset }

// Build constructs the algorithm in the modes o selects. It fails when
// o asks for an arena the algorithm lacks, a negative shard count or
// an empty focus range.
func (im Impl) Build(o Options) (Set, error) {
	mk := im.New
	if o.Arena {
		if im.NewArena == nil {
			return nil, fmt.Errorf("listset: %s has no arena form (node reuse is an ABA hazard for the lock-free lists); arena algorithms: %s",
				im.Name, strings.Join(arenaNames(), ", "))
		}
		mk = im.NewArena
	}
	if o.Shards < 0 {
		return nil, fmt.Errorf("listset: %d shards, must be non-negative", o.Shards)
	}
	if o.Shards == 0 {
		return mk(), nil
	}
	lo, hi := o.Lo, o.Hi
	if lo == 0 && hi == 0 {
		hi = shard.DefaultFocus
	}
	if hi <= lo {
		return nil, fmt.Errorf("listset: empty focus range [%d, %d)", lo, hi)
	}
	return shard.NewRange(o.Shards, lo, hi, func() shard.Set { return mk() }), nil
}

// arenaNames lists the algorithms with an arena mode.
func arenaNames() []string {
	var out []string
	for _, im := range impls {
		if im.NewArena != nil {
			out = append(out, im.Name)
		}
	}
	return out
}

// impls is the registry, one row per algorithm, in the order used by
// reports.
var impls = []Impl{
	{
		Name:       "vbl",
		New:        NewVBL,
		NewArena:   NewVBLArena,
		ThreadSafe: true,
		Desc:       "VBL — concurrency-optimal value-based list (this paper)",
	},
	{
		Name:       "lazy",
		New:        NewLazy,
		NewArena:   NewLazyArena,
		ThreadSafe: true,
		Desc:       "Lazy Linked List (Heller et al. 2006)",
	},
	{
		Name:       "harris",
		Aliases:    []string{"harris-marker", "harris-rtti"},
		New:        NewHarrisMarker,
		ThreadSafe: true,
		LockFree:   true,
		Desc:       "Harris-Michael, RTTI-style marker nodes (paper's optimized Java variant)",
	},
	{
		Name:       "harris-amr",
		New:        NewHarrisAMR,
		ThreadSafe: true,
		LockFree:   true,
		Desc:       "Harris-Michael, AtomicMarkableReference cells (extra indirection)",
	},
	{
		Name:       "fomitchev",
		Aliases:    []string{"fr", "selfish", "backlink"},
		New:        NewFomitchev,
		ThreadSafe: true,
		LockFree:   true,
		Desc:       "Fomitchev-Ruppert backlink list with selfish wait-free contains",
	},
	{
		Name:       "optimistic",
		New:        NewOptimistic,
		ThreadSafe: true,
		Desc:       "Optimistic locking list — lock window, validate by re-traversal",
	},
	{
		Name:       "coarse",
		New:        NewCoarse,
		ThreadSafe: true,
		Desc:       "sequential list behind a single global mutex",
	},
	{
		Name:       "hoh",
		Aliases:    []string{"fine", "hand-over-hand"},
		New:        NewHOH,
		ThreadSafe: true,
		Desc:       "hand-over-hand fine-grained locking list",
	},
	{
		Name:       "seq",
		Aliases:    []string{"sequential", "ll"},
		New:        NewSequential,
		ThreadSafe: false,
		Desc:       "Algorithm 1 — sequential reference list (single goroutine only)",
	},
	{
		Name:       "vbskip",
		Aliases:    []string{"skiplist", "vb-skiplist"},
		New:        NewVBSkip,
		NewArena:   NewVBSkipArena,
		ThreadSafe: true,
		Desc:       "value-aware skip list — §5 conjecture: VBL as the membership level",
	},
	{
		Name:       "lazyskip",
		Aliases:    []string{"lazy-skiplist"},
		New:        NewLazySkip,
		ThreadSafe: true,
		Desc:       "LazySkipList (Herlihy & Shavit ch. 14.3) — lock-all-preds baseline",
	},
	{
		Name:       "vbl-headrestart",
		New:        NewVBLHeadRestart,
		ThreadSafe: true,
		Desc:       "ablation: VBL restarting failed validations from head",
	},
	{
		Name:       "vbl-noprevalidate",
		New:        NewVBLNoPreValidation,
		ThreadSafe: true,
		Desc:       "ablation: VBL locking before validating (no lock-free pre-check)",
	},
	{
		Name:       "vbl-mutex",
		New:        NewVBLMutex,
		ThreadSafe: true,
		Desc:       "ablation: VBL with sync.Mutex node locks instead of the CAS try-lock",
	},
}

// composedAliases are short names for composed modes, kept from when
// the registry listed compositions as rows of their own.
var composedAliases = map[string]string{
	"arena":        "vbl-arena",
	"sharded":      "vbl-sharded",
	"skip-sharded": "vbskip-sharded",
}

// Implementations returns all registered algorithms in report order.
func Implementations() []Impl {
	out := make([]Impl, len(impls))
	copy(out, impls)
	return out
}

// Lookup resolves an implementation by name or alias (case-insensitive).
// Besides the algorithms' names it accepts every algorithm name with
// the modes it composes with appended — "vbl-sharded", "vbl-arena",
// "vbl-sharded-arena" — and resolves those to the algorithm with Name
// kept as given and Preset reporting the modes.
func Lookup(name string) (Impl, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	if full, ok := composedAliases[want]; ok {
		want = full
	}
	for _, im := range impls {
		for _, a := range im.Aliases {
			if a == want {
				return im, nil
			}
		}
		for _, o := range im.modes() {
			if label(im.Name, o) == want {
				if o != (Options{}) {
					im.Name, im.Aliases, im.preset = want, nil, o
				}
				return im, nil
			}
		}
	}
	var names []string
	for _, im := range impls {
		names = append(names, im.Name)
	}
	sort.Strings(names)
	return Impl{}, fmt.Errorf("listset: unknown implementation %q (have: %s; append -sharded, or -arena for %s)",
		name, strings.Join(names, ", "), strings.Join(arenaNames(), ", "))
}
