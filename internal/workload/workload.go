// Package workload implements the Synchrobench workload model used by
// the paper's evaluation (Section 4):
//
//   - a workload is characterized by its update percentage x: the set
//     receives x/2 % insert calls, x/2 % remove calls and (100-x) %
//     contains calls;
//   - every operation draws its argument uniformly at random from a
//     fixed key range [0, Range);
//   - before measuring, the set is pre-populated so that each key of the
//     range is present with probability 1/2, putting the list at its
//     steady-state size of about Range/2.
//
// Each worker goroutine owns a private xorshift generator so that drawing
// operations costs a few nanoseconds and shares nothing.
package workload

import (
	"fmt"
	"math/rand"
)

// Op is the kind of a generated set operation.
type Op uint8

const (
	// Contains is a membership query.
	Contains Op = iota
	// Insert adds a key.
	Insert
	// Remove deletes a key.
	Remove
	// Scan is a range scan [lo, lo+ScanSpan()); the generated key is the
	// scan's lower bound. Only produced when Config.ScanPercent > 0.
	Scan
)

// String returns the lower-case operation name.
func (o Op) String() string {
	switch o {
	case Contains:
		return "contains"
	case Insert:
		return "insert"
	case Remove:
		return "remove"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Key distributions accepted by Config.Dist.
const (
	// DistUniform draws keys uniformly from [0, Range); the empty string
	// means the same (Synchrobench's default).
	DistUniform = "uniform"
	// DistZipf draws keys Zipfian with skew Theta: key 0 hottest. See
	// zipf.go for why a skewed draw is the interesting stress.
	DistZipf = "zipf"
	// DistHotspot sends HotPercent% of the traffic into the window
	// [HotLo, HotLo+HotWidth) and the rest uniformly over the range —
	// the adversarial shape for a range partitioner, because unlike
	// Zipf the hot mass can be parked on an arbitrary point of the key
	// space (a shard seam, say).
	DistHotspot = "hotspot"
)

// Config describes a Synchrobench workload.
type Config struct {
	// UpdatePercent is x in the paper's terminology: x/2 % inserts,
	// x/2 % removes, (100-x) % contains. Must be in [0, 100].
	UpdatePercent int
	// Range is the size of the key range; keys are drawn from
	// [0, Range). The steady-state set size is about Range/2.
	Range int64
	// Dist selects the key distribution: DistUniform (also the empty
	// string) or DistZipf.
	Dist string
	// Theta is the Zipfian skew, in (0, 1); consulted only when Dist is
	// DistZipf. Larger is more skewed (0.99 is YCSB's "hotspot" default).
	Theta float64
	// ScanPercent carves range scans out of the contains share: x/2 %
	// inserts, x/2 % removes, ScanPercent % scans, the rest contains.
	// Must satisfy UpdatePercent + ScanPercent <= 100.
	ScanPercent int
	// ScanWidth is the key width of each generated scan [lo, lo+width).
	// Zero means the DefaultScanWidth.
	ScanWidth int64
	// HotPercent is the share of traffic drawn from the hot window,
	// consulted only when Dist is DistHotspot; 0 means
	// DefaultHotPercent.
	HotPercent int
	// HotLo is the hot window's inclusive lower key bound.
	HotLo int64
	// HotWidth is the hot window's key width; 0 means
	// max(Range/128, 1).
	HotWidth int64
}

// DefaultHotPercent is the hot-window traffic share used when
// Config.HotPercent is 0: hot enough that a static partition melts,
// with enough uniform background that the rest of the set stays live.
const DefaultHotPercent = 90

// HotSpan returns the effective hot-window width.
func (c Config) HotSpan() int64 {
	if c.HotWidth > 0 {
		return c.HotWidth
	}
	if w := c.Range / 128; w > 0 {
		return w
	}
	return 1
}

// HotShare returns the effective hot-window traffic percentage.
func (c Config) HotShare() int {
	if c.HotPercent > 0 {
		return c.HotPercent
	}
	return DefaultHotPercent
}

// DefaultScanWidth is the scan width used when Config.ScanWidth is 0:
// wide enough to cover ~50 resident keys at steady state on the small
// benchmark range, so a scan is clearly heavier than a point read.
const DefaultScanWidth int64 = 100

// ScanSpan returns the effective scan width.
func (c Config) ScanSpan() int64 {
	if c.ScanWidth > 0 {
		return c.ScanWidth
	}
	return DefaultScanWidth
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	if c.UpdatePercent < 0 || c.UpdatePercent > 100 {
		return fmt.Errorf("workload: update percent %d out of [0, 100]", c.UpdatePercent)
	}
	if c.Range <= 0 {
		return fmt.Errorf("workload: key range %d must be positive", c.Range)
	}
	switch c.Dist {
	case "", DistUniform:
	case DistZipf:
		if c.Theta <= 0 || c.Theta >= 1 {
			return fmt.Errorf("workload: zipf theta %v out of (0, 1)", c.Theta)
		}
	case DistHotspot:
		if c.HotPercent < 0 || c.HotPercent > 100 {
			return fmt.Errorf("workload: hot percent %d out of [0, 100]", c.HotPercent)
		}
		if c.HotLo < 0 || c.HotWidth < 0 || c.HotLo+c.HotSpan() > c.Range {
			return fmt.Errorf("workload: hot window [%d, %d) escapes the key range [0, %d)", c.HotLo, c.HotLo+c.HotSpan(), c.Range)
		}
	default:
		return fmt.Errorf("workload: unknown distribution %q (have: %s, %s, %s)", c.Dist, DistUniform, DistZipf, DistHotspot)
	}
	if c.ScanPercent < 0 || c.ScanPercent > 100 {
		return fmt.Errorf("workload: scan percent %d out of [0, 100]", c.ScanPercent)
	}
	if c.UpdatePercent+c.ScanPercent > 100 {
		return fmt.Errorf("workload: update %d%% + scan %d%% exceed 100%%", c.UpdatePercent, c.ScanPercent)
	}
	if c.ScanWidth < 0 {
		return fmt.Errorf("workload: scan width %d must be non-negative", c.ScanWidth)
	}
	return nil
}

// String renders the config in the paper's notation.
func (c Config) String() string {
	s := fmt.Sprintf("%d%%-updates/range=%d", c.UpdatePercent, c.Range)
	if c.Dist == DistZipf {
		s += fmt.Sprintf("/zipf=%.2f", c.Theta)
	}
	if c.Dist == DistHotspot {
		s += fmt.Sprintf("/hot=%d%%@[%d,%d)", c.HotShare(), c.HotLo, c.HotLo+c.HotSpan())
	}
	if c.ScanPercent > 0 {
		s += fmt.Sprintf("/%d%%-scans(w=%d)", c.ScanPercent, c.ScanSpan())
	}
	return s
}

// Generator produces the operation stream for one worker goroutine. It
// is NOT safe for concurrent use: give each goroutine its own Generator.
// Its thresholds and distribution tables are precomputed from the
// Config so Next is a few arithmetic ops.
type Generator struct {
	cfg       Config
	updateCut uint64 // thresholds over a 0..9999 roll
	insertCut uint64
	scanCut   uint64 // scans occupy [updateCut, scanCut)
	zipf      zipfGen
	useZipf   bool
	useHot    bool
	hotCut    uint64 // hot-window share of a 0..9999 roll
	hotLo     int64
	hotWidth  int64
	rng       XorShift
}

// NewGenerator returns a generator for cfg seeded with seed. Two
// generators with equal seeds produce identical streams.
func NewGenerator(cfg Config, seed uint64) *Generator {
	g := &Generator{
		cfg:       cfg,
		updateCut: uint64(cfg.UpdatePercent) * 100, // out of 10000
		insertCut: uint64(cfg.UpdatePercent) * 50,  // updates split evenly
		rng:       NewXorShift(seed),
	}
	g.scanCut = g.updateCut + uint64(cfg.ScanPercent)*100
	switch cfg.Dist {
	case DistZipf:
		g.zipf = newZipf(cfg.Range, cfg.Theta)
		g.useZipf = true
	case DistHotspot:
		g.useHot = true
		g.hotCut = uint64(cfg.HotShare()) * 100
		g.hotLo = cfg.HotLo
		g.hotWidth = cfg.HotSpan()
	}
	return g
}

// Key draws one key from the configured distribution.
func (g *Generator) Key() int64 {
	if g.useZipf {
		return g.zipf.draw(&g.rng)
	}
	if g.useHot && g.rng.Next()%10000 < g.hotCut {
		return g.hotLo + int64(g.rng.Next()%uint64(g.hotWidth))
	}
	return int64(g.rng.Next() % uint64(g.cfg.Range))
}

// Next draws the next operation and key. For Scan ops the key is the
// scan's lower bound; the width is Config.ScanSpan().
func (g *Generator) Next() (Op, int64) {
	roll := g.rng.Next() % 10000
	key := g.Key()
	switch {
	case roll < g.insertCut:
		return Insert, key
	case roll < g.updateCut:
		return Remove, key
	case roll < g.scanCut:
		return Scan, key
	default:
		return Contains, key
	}
}

// NextBatch draws the next batched operation: one op kind and up to k
// keys appended into dst[:0] (the returned slice aliases dst's array
// when it has capacity). The keys are raw draws — unsorted, possibly
// duplicated — exactly what the sets' batch entry points are specified
// to accept. Scan ops carry a single key, the scan's lower bound.
func (g *Generator) NextBatch(dst []int64, k int) (Op, []int64) {
	op, key := g.Next()
	dst = append(dst[:0], key)
	if op == Scan {
		return op, dst
	}
	for i := 1; i < k; i++ {
		dst = append(dst, g.Key())
	}
	return op, dst
}

// Prepopulate inserts each key of cfg's range into insert with
// probability 1/2, reproducing the paper's initialization ("each element
// is present with probability 1/2"). It uses math/rand (seeded) rather
// than the worker xorshift so population is reproducible independently
// of the op stream. It returns how many keys were inserted.
func Prepopulate(cfg Config, seed int64, insert func(int64) bool) int {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for k := int64(0); k < cfg.Range; k++ {
		if rng.Intn(2) == 0 {
			if insert(k) {
				n++
			}
		}
	}
	return n
}

// PrepopulateKeys returns the exact key set Prepopulate(cfg, seed, ·)
// would insert, in ascending order, without touching a set — the input
// for a bulk Load. Prepopulate and PrepopulateKeys with equal seeds
// always agree, so a harness may use either interchangeably.
func PrepopulateKeys(cfg Config, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, 0, cfg.Range/2+1)
	for k := int64(0); k < cfg.Range; k++ {
		if rng.Intn(2) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// PrepopulateHalf deterministically inserts every even key, yielding an
// exactly-half-full set; useful when tests need a known layout.
func PrepopulateHalf(cfg Config, insert func(int64) bool) int {
	n := 0
	for k := int64(0); k < cfg.Range; k += 2 {
		if insert(k) {
			n++
		}
	}
	return n
}
