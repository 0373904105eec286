package listset

import (
	"fmt"
	"testing"

	"listset/internal/core"
	"listset/internal/harris"
	"listset/internal/lazy"
	"listset/internal/mem"
	"listset/internal/shard"
	"listset/internal/skiplist"
)

// acceptedNames lists every name Lookup accepts: each algorithm's name
// in every mode it composes with, its aliases, and the short composed
// aliases.
func acceptedNames() []string {
	var names []string
	for _, im := range Implementations() {
		for _, o := range im.modes() {
			names = append(names, label(im.Name, o))
		}
		names = append(names, im.Aliases...)
	}
	for alias := range composedAliases {
		names = append(names, alias)
	}
	return names
}

// describe renders what a built set is: its type, partition and arena.
func describe(s Set) string {
	d := fmt.Sprintf("%T", s)
	if sh, ok := s.(*shard.Sharded); ok {
		lo, hi := sh.FocusRange()
		d += fmt.Sprintf(" %d shards over [%d, %d)", sh.Shards(), lo, hi)
	}
	if a, ok := s.(interface{ ArenaStats() (mem.Stats, bool) }); ok {
		_, on := a.ArenaStats()
		d += fmt.Sprintf(" arena=%v", on)
	}
	return d
}

// TestLookupEveryName builds every accepted name under each (Shards,
// Arena) combination: the ones its algorithm supports must build
// working sets, and an arena request on an algorithm without an arena
// mode must fail with an error, not a panic. A name that used to be a
// registry row of its own must build what that row's constructor did.
func TestLookupEveryName(t *testing.T) {
	sharded := func(mk func() shard.Set) func() Set {
		return func() Set { return shard.New(DefaultShards, mk) }
	}
	seedRows := map[string]func() Set{
		"vbl-arena":        func() Set { return core.NewArena() },
		"lazy-arena":       func() Set { return lazy.NewArena() },
		"vbskip-arena":     func() Set { return skiplist.NewVBArena() },
		"vbl-sharded":      sharded(func() shard.Set { return core.New() }),
		"lazy-sharded":     sharded(func() shard.Set { return lazy.New() }),
		"harris-sharded":   sharded(func() shard.Set { return harris.NewMarker() }),
		"vbskip-sharded":   sharded(func() shard.Set { return skiplist.NewVB() }),
		"lazyskip-sharded": sharded(func() shard.Set { return skiplist.NewLazy() }),
	}
	for _, name := range acceptedNames() {
		t.Run(name, func(t *testing.T) {
			im, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []Options{{}, {Arena: true}, {Shards: 4, Lo: 0, Hi: 8}, {Shards: 4, Lo: 0, Hi: 8, Arena: true}} {
				s, err := im.Build(o)
				if o.Arena && im.NewArena == nil {
					if err == nil {
						t.Errorf("Build(%+v) succeeded without an arena mode", o)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Build(%+v): %v", o, err)
				}
				if !s.Insert(5) || !s.Contains(5) || s.Len() != 1 {
					t.Fatalf("Build(%+v) produced a broken set", o)
				}
			}
			if seed := seedRows[im.Name]; seed != nil {
				s, err := im.Build(im.Preset())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := describe(s), describe(seed()); got != want {
					t.Errorf("%s builds %s, the seed row built %s", name, got, want)
				}
			}
		})
	}
	// Node reuse is an ABA hazard for the lock-free lists, and the rest
	// never gained an arena.
	for _, name := range []string{"harris", "fomitchev", "optimistic", "coarse", "hoh", "seq"} {
		if im, _ := Lookup(name); im.NewArena != nil {
			t.Errorf("%s has an arena mode", name)
		}
	}
	for _, o := range []Options{{Shards: -1}, {Shards: 4, Lo: 8, Hi: 8}} {
		if _, err := impls[0].Build(o); err == nil {
			t.Errorf("Build(%+v) accepted", o)
		}
	}
}
