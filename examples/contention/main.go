// Contention: the Figure-1 story at miniature scale — a ~25-node list
// (key range 50) under 20% updates, Lazy Linked List versus VBL, as the
// number of goroutines grows. On a small list every update lands on the
// same few nodes, so the Lazy list's lock-then-validate discipline makes
// even the updates that change nothing serialize on hot locks, while
// VBL's validate-before-lock lets them return lock-free.
package main

import (
	"fmt"
	"time"

	"listset"
	"listset/internal/harness"
	"listset/internal/stats"
	"listset/internal/workload"
)

func main() {
	wl := workload.Config{UpdatePercent: 20, Range: 50}
	threads := []int{1, 2, 4, 8, 16, 32}

	fmt.Printf("20%% updates over a ~25-node list (key range %d)\n\n", wl.Range)
	fmt.Printf("%8s  %14s  %14s  %8s\n", "threads", "vbl (ops/s)", "lazy (ops/s)", "vbl/lazy")

	for _, th := range threads {
		vbl := cell("vbl", th, wl)
		lazy := cell("lazy", th, wl)
		fmt.Printf("%8d  %14s  %14s  %7.2fx\n",
			th, stats.HumanCount(vbl), stats.HumanCount(lazy), stats.Speedup(vbl, lazy))
	}
	fmt.Println("\n(On a single-core host the two stay close — the paper's 1.6x gap")
	fmt.Println("needs real cross-core cache-line contention; see EXPERIMENTS.md.)")
}

func cell(impl string, threads int, wl workload.Config) float64 {
	im, err := listset.Lookup(impl)
	if err != nil {
		panic(err)
	}
	res, err := harness.Run(harness.Config{
		Name:     im.Name,
		New:      func() harness.Set { s, _ := im.Build(im.Preset()); return s },
		Threads:  threads,
		Workload: wl,
		Duration: 150 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Runs:     2,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	return res.Summary.Mean
}
