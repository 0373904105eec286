package listset_test

import (
	"fmt"
	"sync"

	"listset"
)

func ExampleNewVBL() {
	s := listset.NewVBL()
	fmt.Println(s.Insert(3))   // true: 3 was absent
	fmt.Println(s.Insert(3))   // false: already present
	fmt.Println(s.Contains(3)) // true
	fmt.Println(s.Remove(3))   // true: 3 was present
	fmt.Println(s.Remove(3))   // false: already gone
	// Output:
	// true
	// false
	// true
	// true
	// false
}

func ExampleSet_Snapshot() {
	s := listset.NewVBL()
	for _, v := range []int64{5, -2, 9, 0} {
		s.Insert(v)
	}
	fmt.Println(s.Snapshot())
	fmt.Println(s.Len())
	// Output:
	// [-2 0 5 9]
	// 4
}

func ExampleNewVBL_concurrent() {
	s := listset.NewVBL()
	var wg sync.WaitGroup
	// Four goroutines insert disjoint stripes concurrently.
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for k := base; k < base+25; k++ {
				s.Insert(k)
			}
		}(g * 25)
	}
	wg.Wait()
	fmt.Println(s.Len())
	// Output:
	// 100
}

func ExampleLookup() {
	// A composed name resolves to its algorithm plus preset modes.
	im, err := listset.Lookup("harris-sharded")
	if err != nil {
		panic(err)
	}
	fmt.Println(im.Name, im.LockFree, im.Preset().Shards)
	s, err := im.Build(im.Preset())
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Insert(1))
	// Output:
	// harris-sharded true 16
	// true
}

func ExampleImplementations() {
	for _, im := range listset.Implementations() {
		if im.ThreadSafe && im.LockFree {
			fmt.Println(im.Name)
		}
	}
	// Output:
	// harris
	// harris-amr
	// fomitchev
}

func ExampleNewVBLShardedRange() {
	// Four VBL lists behind the order-preserving range partitioner:
	// keys in [0, 40) split into spans of 16 (the shard count and span
	// are rounded to powers of two), and out-of-range keys clamp to
	// the edge shards. The Set contract is unchanged — Snapshot is
	// still one ascending sequence.
	s := listset.NewVBLShardedRange(4, 0, 40)
	for _, v := range []int64{33, 2, 17, -8, 99} {
		s.Insert(v)
	}
	fmt.Println(s.Snapshot())
	fmt.Println(s.Len())
	// Output:
	// [-8 2 17 33 99]
	// 5
}
