package listset

import (
	"math/rand"
	"sync"
	"testing"

	"listset/internal/lincheck"
)

// TestLinearizability records real concurrent executions of every
// thread-safe implementation and verifies them with the Wing-Gong
// checker — the executable counterpart of the paper's Theorem 1.
func TestLinearizability(t *testing.T) {
	forEachConcurrentMode(t, 0, 12, func(t *testing.T, im Impl) {
		for trial := 0; trial < 3; trial++ {
			runLinearizabilityTrial(t, im, int64(trial))
		}
	})
}

func runLinearizabilityTrial(t *testing.T, im Impl, trial int64) {
	t.Helper()
	s := im.New()
	// Pre-populate a known initial state: even keys present.
	const keyRange = 12
	initial := map[int64]bool{}
	for k := int64(0); k < keyRange; k += 2 {
		s.Insert(k)
		initial[k] = true
	}

	rec := lincheck.NewRecorder()
	const goroutines = 6
	sessions := make([]*lincheck.Session, goroutines)
	for i := range sessions {
		sessions[i] = rec.NewSession(s)
	}
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(seed int64, sess *lincheck.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 1500; j++ {
				k := int64(rng.Intn(keyRange))
				switch rng.Intn(4) {
				case 0:
					sess.Insert(k)
				case 1:
					sess.Remove(k)
				default:
					sess.Contains(k)
				}
			}
		}(trial*100+int64(i), sess)
	}
	wg.Wait()
	if err := lincheck.Check(rec.History(), initial); err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
}

// TestLinearizabilitySharded adds three more trials, with seeds of
// their own, for every concurrent algorithm's sharded and
// sharded+arena modes on a partition squeezed into the trial's 12-key
// range (4 shards over [0, 12), spans of 4), so operations race on
// both sides of every shard seam — where the composition argument
// (DESIGN.md §8) actually bites.
func TestLinearizabilitySharded(t *testing.T) {
	for _, im := range testModes(0, 12) {
		if !im.ThreadSafe || im.preset.Shards == 0 {
			continue
		}
		t.Run(im.Name+"-tight", func(t *testing.T) {
			for trial := 3; trial < 6; trial++ {
				runLinearizabilityTrial(t, im, int64(trial))
			}
		})
	}
}

// TestLinearizabilityHighContention narrows the key range to 3 so nearly
// every operation contends — the regime in which validation bugs (lost
// updates, phantom members) would surface.
func TestLinearizabilityHighContention(t *testing.T) {
	forEachConcurrentMode(t, 0, 3, func(t *testing.T, im Impl) {
		s := im.New()
		rec := lincheck.NewRecorder()
		const goroutines = 8
		sessions := make([]*lincheck.Session, goroutines)
		for i := range sessions {
			sessions[i] = rec.NewSession(s)
		}
		var wg sync.WaitGroup
		for i, sess := range sessions {
			wg.Add(1)
			go func(seed int64, sess *lincheck.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for j := 0; j < 1000; j++ {
					k := int64(rng.Intn(3))
					switch rng.Intn(3) {
					case 0:
						sess.Insert(k)
					case 1:
						sess.Remove(k)
					default:
						sess.Contains(k)
					}
				}
			}(int64(i)+1000, sess)
		}
		wg.Wait()
		if err := lincheck.Check(rec.History(), nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLinearizabilityUpdateOnly removes the read smokescreen: inserts
// and removes only, over two keys, where every anomaly is structural.
func TestLinearizabilityUpdateOnly(t *testing.T) {
	forEachConcurrentMode(t, 0, 2, func(t *testing.T, im Impl) {
		s := im.New()
		rec := lincheck.NewRecorder()
		const goroutines = 8
		sessions := make([]*lincheck.Session, goroutines)
		for i := range sessions {
			sessions[i] = rec.NewSession(s)
		}
		var wg sync.WaitGroup
		for i, sess := range sessions {
			wg.Add(1)
			go func(seed int64, sess *lincheck.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for j := 0; j < 1200; j++ {
					k := int64(rng.Intn(2))
					if rng.Intn(2) == 0 {
						sess.Insert(k)
					} else {
						sess.Remove(k)
					}
				}
			}(int64(i)+2000, sess)
		}
		wg.Wait()
		if err := lincheck.Check(rec.History(), nil); err != nil {
			t.Fatal(err)
		}
	})
}
