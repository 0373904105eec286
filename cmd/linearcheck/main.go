// Command linearcheck records real concurrent executions of the list
// implementations and verifies them with the Wing-Gong linearizability
// checker — the executable counterpart of the paper's Theorem 1.
//
// Example:
//
//	linearcheck -impl vbl -threads 8 -ops 2000 -keys 8 -trials 10
//	linearcheck -impl all
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"listset"
	"listset/internal/lincheck"
)

func main() {
	var (
		implName = flag.String("impl", "all", "implementation to check, or 'all'")
		threads  = flag.Int("threads", 6, "concurrent goroutines per trial")
		ops      = flag.Int("ops", 1500, "operations per goroutine per trial")
		keys     = flag.Int64("keys", 8, "key range (smaller = more contention)")
		trials   = flag.Int("trials", 5, "trials per implementation")
		seed     = flag.Int64("seed", 7, "base RNG seed")
	)
	flag.Parse()

	var impls []listset.Impl
	if *implName == "all" {
		for _, im := range listset.Implementations() {
			if im.ThreadSafe {
				impls = append(impls, im)
			}
		}
	} else {
		im, err := listset.Lookup(*implName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !im.ThreadSafe {
			fmt.Fprintf(os.Stderr, "linearcheck: %s is not thread safe; nothing to check\n", im.Name)
			os.Exit(2)
		}
		impls = append(impls, im)
	}

	failed := false
	for _, im := range impls {
		fmt.Printf("%-12s ", im.Name)
		bad := 0
		var totalOps int
		// A composed name's partition is fitted to the checked keys.
		o := im.Preset()
		o.Lo, o.Hi = 0, *keys
		for trial := 0; trial < *trials; trial++ {
			set, err := im.Build(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			h := record(set, *threads, *ops, *keys, *seed+int64(trial)*1000)
			totalOps += len(h.Ops)
			if err := lincheck.Check(h, nil); err != nil {
				bad++
				fmt.Printf("\n  trial %d: %v", trial, err)
				if v, ok := err.(*lincheck.Violation); ok {
					fmt.Printf("\n  minimal violating core:")
					for _, op := range v.Minimize(false) {
						fmt.Printf("\n    %v", op)
					}
				}
			}
		}
		if bad == 0 {
			fmt.Printf("ok: %d trials, %d recorded operations, all linearizable\n", *trials, totalOps)
		} else {
			fmt.Printf("\n  %d/%d trials NOT linearizable\n", bad, *trials)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func record(set listset.Set, threads, opsPerThread int, keys, seed int64) lincheck.History {
	rec := lincheck.NewRecorder()
	sessions := make([]*lincheck.Session, threads)
	for i := range sessions {
		sessions[i] = rec.NewSession(set)
	}
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(seed int64, sess *lincheck.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < opsPerThread; j++ {
				k := rng.Int63n(keys)
				switch rng.Intn(3) {
				case 0:
					sess.Insert(k)
				case 1:
					sess.Remove(k)
				default:
					sess.Contains(k)
				}
			}
		}(seed+int64(i), sess)
	}
	wg.Wait()
	return rec.History()
}
