package workload

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Time-varying and adversarial workloads. A Schedule is a cyclic list
// of phases — full workload Configs with durations — advanced by one
// shared Clock that every worker's Generator polls with a single
// atomic load per draw. The presets encode the three shapes the
// adaptive controller (internal/adapt) is evaluated against:
//
//   - "bursts": read-heavy → write-burst → delete-churn, the
//     time-varying mix that forces the retry-budget and backoff
//     actuators to track a moving operating point;
//   - "seam": all hot traffic parked on the key-space midpoint, which
//     is a shard boundary for every power-of-two shard count — the
//     worst case for a static range partition;
//   - "moving": a hot window that jumps across the range each phase,
//     so the shards whose backoff widened cool again a phase later.

// Phase is one leg of a Schedule: a complete workload configuration
// and how long it runs before the clock moves on.
type Phase struct {
	// Name labels the phase in reports ("write-burst").
	Name string
	// Dur is the phase's dwell time before the schedule advances.
	Dur time.Duration
	// Cfg is the full workload for the phase's duration.
	Cfg Config
}

// Schedule is a cyclic time-varying workload: phases plus the shared
// clock naming the current one. Construct with NewSchedule or Preset;
// drive with Drive (or Advance from a custom driver).
type Schedule struct {
	Phases []Phase
	Clock  Clock
}

// NewSchedule validates the phases and returns a schedule positioned
// on phase 0.
func NewSchedule(phases []Phase) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: schedule needs at least one phase")
	}
	for i, ph := range phases {
		if err := ph.Cfg.Validate(); err != nil {
			return nil, fmt.Errorf("workload: phase %d (%s): %w", i, ph.Name, err)
		}
		if ph.Dur <= 0 {
			return nil, fmt.Errorf("workload: phase %d (%s) has non-positive duration %v", i, ph.Name, ph.Dur)
		}
	}
	return &Schedule{Phases: phases}, nil
}

// Advance moves the clock to phase i (mod the phase count).
func (s *Schedule) Advance(i int) {
	s.Clock.phase.Store(int32(i % len(s.Phases)))
}

// Current returns the clock's phase index and that phase.
func (s *Schedule) Current() (int, Phase) {
	i := int(s.Clock.Phase())
	return i, s.Phases[i]
}

// Drive cycles the clock through the phases, dwelling each phase's
// duration, until stop closes. Run it in its own goroutine alongside
// the workers; generators pick the change up on their next draw.
func (s *Schedule) Drive(stop <-chan struct{}) {
	t := time.NewTimer(s.Phases[0].Dur)
	defer t.Stop()
	for i := 0; ; {
		select {
		case <-stop:
			return
		case <-t.C:
			i++
			s.Advance(i)
			t.Reset(s.Phases[i%len(s.Phases)].Dur)
		}
	}
}

// MaxRange returns the largest key range any phase draws from — what a
// harness must size its set (and focus range) for.
func (s *Schedule) MaxRange() int64 {
	var r int64
	for _, ph := range s.Phases {
		if ph.Cfg.Range > r {
			r = ph.Cfg.Range
		}
	}
	return r
}

// String renders the cycle compactly for reports.
func (s *Schedule) String() string {
	out := ""
	for i, ph := range s.Phases {
		if i > 0 {
			out += " → "
		}
		out += fmt.Sprintf("%s(%v)", ph.Name, ph.Dur)
	}
	return out
}

// Clock is the shared phase pointer: one writer (the driver), many
// readers (the generators), one atomic load per draw.
type Clock struct {
	phase atomic.Int32
}

// Phase returns the current phase index.
func (c *Clock) Phase() int32 { return c.phase.Load() }

// DefaultPhaseDur is the per-phase dwell used by presets when the
// caller passes 0: several controller intervals long, so the adaptive
// loop has time to converge inside each phase.
const DefaultPhaseDur = 150 * time.Millisecond

// PresetNames lists the phase-schedule presets Preset accepts.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var presets = map[string]func(base Config, dur time.Duration) []Phase{
	"bursts": func(base Config, dur time.Duration) []Phase {
		read, burst, churn := base, base, base
		read.UpdatePercent, read.InsertShare = 10, 0
		burst.UpdatePercent, burst.InsertShare = 80, 70
		churn.UpdatePercent, churn.InsertShare = 80, 20
		return []Phase{
			{Name: "read-heavy", Dur: dur, Cfg: read},
			{Name: "write-burst", Dur: dur, Cfg: burst},
			{Name: "delete-churn", Dur: dur, Cfg: churn},
		}
	},
	"seam": func(base Config, dur time.Duration) []Phase {
		hot := base
		hot.Dist = DistHotspot
		w := hot.HotSpan()
		hot.HotLo = clampHot(base.Range/2-w/2, w, base.Range)
		return []Phase{{Name: "seam-attack", Dur: dur, Cfg: hot}}
	},
	"moving": func(base Config, dur time.Duration) []Phase {
		const hops = 8
		phases := make([]Phase, hops)
		for i := range phases {
			hot := base
			hot.Dist = DistHotspot
			w := hot.HotSpan()
			hot.HotLo = clampHot(int64(i)*base.Range/hops, w, base.Range)
			phases[i] = Phase{Name: fmt.Sprintf("hotspot-%d", i), Dur: dur, Cfg: hot}
		}
		return phases
	},
}

// clampHot keeps a hot window of width w inside [0, r).
func clampHot(lo, w, r int64) int64 {
	if lo < 0 {
		return 0
	}
	if lo+w > r {
		return r - w
	}
	return lo
}

// Preset builds one of the named adversarial schedules over base.
// dur 0 means DefaultPhaseDur per phase.
func Preset(name string, base Config, dur time.Duration) (*Schedule, error) {
	mk, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown phase preset %q (have: %v)", name, PresetNames())
	}
	if dur <= 0 {
		dur = DefaultPhaseDur
	}
	return NewSchedule(mk(base, dur))
}
