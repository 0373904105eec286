package workload

import (
	"testing"
)

// TestHotspotConcentration: the hotspot distribution must place its
// configured share (±ε) of draws inside the hot window and spread the
// rest over the whole range.
func TestHotspotConcentration(t *testing.T) {
	cfg := Config{
		UpdatePercent: 50,
		Range:         20000,
		Dist:          DistHotspot,
		HotLo:         9900,
		HotWidth:      200,
		HotPercent:    90,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(cfg, 42)
	const draws = 200000
	hot, outside := 0, 0
	for i := 0; i < draws; i++ {
		k := g.Key()
		if k < 0 || k >= cfg.Range {
			t.Fatalf("key %d escaped the range [0, %d)", k, cfg.Range)
		}
		if k >= cfg.HotLo && k < cfg.HotLo+cfg.HotWidth {
			hot++
		} else {
			outside++
		}
	}
	// 90% targeted + ~1% of the uniform remainder falls in the window; accept a
	// generous band around it.
	frac := float64(hot) / draws
	if frac < 0.87 || frac > 0.95 {
		t.Fatalf("hot-window fraction = %.3f, want ≈0.90", frac)
	}
	if outside == 0 {
		t.Fatal("no draws outside the hot window; background traffic missing")
	}
}

// TestInsertShareBias: InsertShare must skew the insert/remove split
// of the update half without touching the read share.
func TestInsertShareBias(t *testing.T) {
	cfg := Config{UpdatePercent: 80, Range: 1000, InsertShare: 20}
	g := NewGenerator(cfg, 7)
	const draws = 100000
	var ins, rem, rd int
	for i := 0; i < draws; i++ {
		switch op, _ := g.Next(); op {
		case Insert:
			ins++
		case Remove:
			rem++
		default:
			rd++
		}
	}
	if f := float64(ins) / draws; f < 0.14 || f > 0.18 {
		t.Errorf("insert fraction = %.3f, want ≈0.16 (20%% of 80%%)", f)
	}
	if f := float64(rem) / draws; f < 0.61 || f > 0.67 {
		t.Errorf("remove fraction = %.3f, want ≈0.64", f)
	}
	if f := float64(rd) / draws; f < 0.17 || f > 0.23 {
		t.Errorf("read fraction = %.3f, want ≈0.20", f)
	}
}

// The TestPresetSchedulesValid, TestSeamPresetStraddlesMidpoint and
// TestPhasedGeneratorFollowsClock names are historical: they once
// checked the time-varying phase schedules. They now check the hotspot
// generator those schedules were built on.

// TestPresetSchedulesValid: hotspot windows at either edge of the range,
// in its middle and covering all of it validate and never draw a key
// outside the range; windows escaping it are rejected.
func TestPresetSchedulesValid(t *testing.T) {
	const rng = 20000
	for _, cfg := range []Config{
		{HotLo: 0, HotWidth: 128, HotPercent: 100},
		{HotLo: rng - 64, HotWidth: 64},
		{HotLo: 10208, HotWidth: 64},
		{HotLo: 0, HotWidth: rng, HotPercent: 50},
		{HotLo: 5000}, // default width and share
	} {
		cfg.UpdatePercent, cfg.Range, cfg.Dist = 50, rng, DistHotspot
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		g := NewGenerator(cfg, 3)
		for j := 0; j < 20000; j++ {
			if _, k := g.Next(); k < 0 || k >= rng {
				t.Fatalf("%v: key %d out of range", cfg, k)
			}
		}
	}
	for _, cfg := range []Config{
		{HotLo: rng - 63, HotWidth: 64},
		{HotLo: -1, HotWidth: 2},
		{HotLo: 0, HotWidth: -1},
		{HotLo: 0, HotPercent: 101},
	} {
		cfg.UpdatePercent, cfg.Range, cfg.Dist = 50, rng, DistHotspot
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%+v: escaping or malformed hot window accepted", cfg)
		}
	}
}

// TestSeamPresetStraddlesMidpoint: the seam window the benchmark cells
// use ([10208, 10272) over range 20000) straddles the boundary 10240
// between shards 4 and 5 of a 16-shard split (spans of 2048 keys), and
// an all-hot draw lands on both flanks in roughly equal shares.
func TestSeamPresetStraddlesMidpoint(t *testing.T) {
	cfg := Config{UpdatePercent: 50, Range: 20000, Dist: DistHotspot, HotLo: 10208, HotWidth: 64, HotPercent: 100}
	const seam = 5 * 2048
	if cfg.HotLo >= seam || cfg.HotLo+cfg.HotSpan() <= seam {
		t.Fatalf("seam window [%d, %d) misses the boundary %d", cfg.HotLo, cfg.HotLo+cfg.HotSpan(), seam)
	}
	g := NewGenerator(cfg, 5)
	const draws = 40000
	below := 0
	for i := 0; i < draws; i++ {
		k := g.Key()
		if k < cfg.HotLo || k >= cfg.HotLo+cfg.HotSpan() {
			t.Fatalf("all-hot draw %d escaped the window", k)
		}
		if k < seam {
			below++
		}
	}
	if f := float64(below) / draws; f < 0.45 || f > 0.55 {
		t.Fatalf("share below the seam = %.3f, want ≈0.50", f)
	}
}

// TestPhasedGeneratorFollowsClock: the hotspot distribution moves keys,
// not operations. The op mix under an all-hot draw matches the
// configured update ratio, and every key of the window is drawn.
func TestPhasedGeneratorFollowsClock(t *testing.T) {
	for _, upd := range []int{10, 80} {
		cfg := Config{UpdatePercent: upd, Range: 1000, Dist: DistHotspot, HotLo: 100, HotWidth: 32, HotPercent: 100}
		g := NewGenerator(cfg, 9)
		const draws = 20000
		n, seen := 0, map[int64]bool{}
		for i := 0; i < draws; i++ {
			op, k := g.Next()
			if op == Insert || op == Remove {
				n++
			}
			seen[k] = true
		}
		if f, want := float64(n)/draws, float64(upd)/100; f < want-0.05 || f > want+0.05 {
			t.Errorf("update fraction = %.3f at %d%% updates", f, upd)
		}
		if len(seen) != 32 {
			t.Errorf("%d distinct keys drawn, want all 32 of the window", len(seen))
		}
	}
}
