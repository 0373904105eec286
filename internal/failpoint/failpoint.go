// Package failpoint is the repository's fault-injection layer: named
// failpoints at the paper-relevant decision points of every list — the
// validations, CASes and lock acquisitions whose failure is exactly
// what distinguishes the algorithms (Figures 2-3, Theorem 3) — plus
// deterministic seeded actions to provoke those failures on demand.
//
// The paper's adversary is a schedule; this package makes that
// adversary executable. A chaos scenario arms one Site with an Action:
//
//   - ActDelay / ActYield stretch the windows the algorithms race over,
//     so rare interleavings (a remove sleeping between its traversal
//     and its unlink, say) become common;
//   - ActFail forces the decision point itself to report failure —
//     a validation that "fails", a CAS that "loses" — driving the
//     restart and helping paths without needing real contention;
//   - ActPause parks the first goroutine that hits the site until the
//     test releases it, pinning the exact interleavings of the paper's
//     Figure 2 and Figure 3 in deterministic unit tests.
//
// The design mirrors internal/obs: a set algorithm carries a *Set
// pointer (nil = disabled, attached via SetFailpoints / Attach), and
// every site in algorithm code sits behind the On guard:
//
//	if fp := s.fps; failpoint.On(fp) {
//		if fp.Fail(failpoint.SiteVBLLockNextAt, v) {
//			// treat the validation as failed: restart
//		}
//	}
//
// so the disabled cost is one predictable branch. Building with
// -tags nofailpoint turns On into a constant false and the compiler
// deletes the sites outright. An unguarded site call on a detached
// (nil) set panics, so any test that reaches it fails.
package failpoint

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one injection point. The constants enumerate the decision
// points the paper's argument turns on; DESIGN.md §9 maps each to the
// schedule steps of Figures 2-3.
type Site uint8

const (
	// SiteVBLLockNextAt fires just before VBL's identity-validating
	// try-lock of prev (Insert's link, Remove's curr lock). An injected
	// failure takes the same restart path as a genuine failed
	// validation.
	SiteVBLLockNextAt Site = iota
	// SiteVBLLockNextAtValue fires just before VBL's value-validating
	// try-lock of prev in Remove — the lock whose by-value validation
	// is the paper's central novelty.
	SiteVBLLockNextAtValue
	// SiteVBLTraverse fires at the start of each attempt of a VBL
	// update operation, before its wait-free traversal. Side-effect
	// actions only; it is the anchor for pausing an op whose failure
	// path touches no other site (a failed insert returns without
	// locking anything).
	SiteVBLTraverse
	// SiteLazyValidate fires at the Lazy list's post-lock window
	// validation, while both window locks are held. An injected failure
	// releases the window and restarts from head, as the algorithm
	// does for a genuine one.
	SiteLazyValidate
	// SiteHarrisCAS fires just before Harris-Michael's algorithmic
	// CASes (insert link, marker/mark install). An injected failure
	// skips the CAS and takes the restart-from-head path of a lost
	// race.
	SiteHarrisCAS
	// SiteTryLockAcquire fires on the blocking acquisition path of
	// trylock.SpinLock (Lock / LockContended), process-wide via
	// trylock.SetChaos. Side-effect actions only; the reported key is
	// always 0.
	SiteTryLockAcquire
	// SiteShardRoute fires in the sharded façade before an operation
	// is routed to its owning shard. Side-effect actions only.
	SiteShardRoute
	// SiteUnlink fires at physical unlink. In the lock-based lists the
	// unlink happens under locks and cannot fail, so only side-effect
	// actions apply there; in Harris-Michael an injected failure skips
	// the best-effort unlink (delegating it to a future helper) or
	// fails the helping unlink (forcing the Figure 3 restart).
	SiteUnlink
	// SiteEpochAdvance fires in the epoch-based reclamation layer
	// (internal/mem) just before a global epoch advance is attempted.
	// An injected failure skips the attempt — stretching the grace
	// period and starving the free lists, never unsafely shortening it
	// — so chaos runs exercise the arena under reclamation pressure.
	SiteEpochAdvance
	// SiteSkipLockNextAt fires just before the VB skip list's
	// identity/value-validating try-lock at level 0 — the membership
	// level, where the skip list IS the VBL protocol. An injected
	// failure takes the same restart path as a genuine failed
	// validation.
	SiteSkipLockNextAt
	// SiteSkipIndexLink fires just before an index-level link or unlink
	// try-lock (levels >= 1, best-effort maintenance). An injected
	// failure abandons the attempt exactly like a lost try-lock race —
	// membership is unaffected, only search-path quality.
	SiteSkipIndexLink
	// SiteSkipTraverse fires at the start of each attempt of a skip-list
	// update operation, before its wait-free descent. Side-effect
	// actions only; the anchor for pausing an op whose failure path
	// touches no other site.
	SiteSkipTraverse

	// NumSites is the number of distinct sites.
	NumSites
)

// siteNames are the stable identifiers accepted by the -chaos flag and
// echoed into JSON reports. Treat them as a schema: append, never
// rename.
var siteNames = [NumSites]string{
	SiteVBLLockNextAt:      "vbl-lock-next-at",
	SiteVBLLockNextAtValue: "vbl-lock-next-at-value",
	SiteVBLTraverse:        "vbl-traverse",
	SiteLazyValidate:       "lazy-validate",
	SiteHarrisCAS:          "harris-cas",
	SiteTryLockAcquire:     "trylock-acquire",
	SiteShardRoute:         "shard-route",
	SiteUnlink:             "unlink",
	SiteEpochAdvance:       "epoch-advance",
	SiteSkipLockNextAt:     "skip-lock-next-at",
	SiteSkipIndexLink:      "skip-index-link",
	SiteSkipTraverse:       "skip-traverse",
}

// String returns the site's stable identifier.
func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return "site(?)"
}

// ParseSite resolves a stable site name.
func ParseSite(name string) (Site, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for s, n := range siteNames {
		if n == want {
			return Site(s), nil
		}
	}
	return 0, fmt.Errorf("failpoint: unknown site %q (have: %s)", name, strings.Join(siteNames[:], ", "))
}

// Action is what an armed failpoint does when hit.
type Action uint8

const (
	// ActDelay sleeps for the scenario's Delay.
	ActDelay Action = iota
	// ActYield calls runtime.Gosched, surrendering the core at the
	// decision point.
	ActYield
	// ActFail forces the decision point to report failure. Only sites
	// consulted through Fail can inject it; Do-only sites perform
	// nothing for a fail arm.
	ActFail
	// ActPause parks the first goroutine that hits the site until
	// Pause.Resume — the one-shot scheduling primitive the figure
	// replay tests are built on.
	ActPause

	// NumActions is the number of distinct actions.
	NumActions
)

// actionNames are the stable identifiers accepted by the -chaos flag.
var actionNames = [NumActions]string{
	ActDelay: "delay",
	ActYield: "yield",
	ActFail:  "fail",
	ActPause: "pause",
}

// String returns the action's stable identifier.
func (a Action) String() string {
	if a < NumActions {
		return actionNames[a]
	}
	return "action(?)"
}

// ParseAction resolves a stable action name.
func ParseAction(name string) (Action, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for a, n := range actionNames {
		if n == want {
			return Action(a), nil
		}
	}
	return 0, fmt.Errorf("failpoint: unknown action %q (have: %s)", name, strings.Join(actionNames[:], ", "))
}

// Scenario is one armed failpoint: a site, an action, and the seeded
// probability gate deciding which hits fire.
type Scenario struct {
	Site   Site
	Action Action
	// Probability is the per-hit chance of firing in (0, 1]; values
	// outside that range are treated as 1 (fire on every hit).
	Probability float64
	// Delay is how long ActDelay sleeps.
	Delay time.Duration
	// Keys, when non-empty, restricts the scenario to hits on these
	// operation keys (boundary keys for seam-fault tests, say).
	Keys []int64
	// Seed makes the probability rolls reproducible: the k-th hit of
	// the site rolls the same number across runs.
	Seed int64
}

// String renders the scenario in the form the -chaos flag accepts:
// site:action[:probability][:delay].
func (sc Scenario) String() string {
	var b strings.Builder
	b.WriteString(sc.Site.String())
	b.WriteByte(':')
	b.WriteString(sc.Action.String())
	if p := sc.effectiveProbability(); p < 1 {
		fmt.Fprintf(&b, ":%g", p)
	}
	if sc.Action == ActDelay {
		fmt.Fprintf(&b, ":%v", sc.Delay)
	}
	return b.String()
}

func (sc Scenario) effectiveProbability() float64 {
	if sc.Probability <= 0 || sc.Probability > 1 {
		return 1
	}
	return sc.Probability
}

// Validate reports whether the scenario is well-formed.
func (sc Scenario) Validate() error {
	if sc.Site >= NumSites {
		return fmt.Errorf("failpoint: scenario site out of range: %d", sc.Site)
	}
	if sc.Action >= NumActions {
		return fmt.Errorf("failpoint: scenario action out of range: %d", sc.Action)
	}
	if sc.Action == ActDelay && sc.Delay <= 0 {
		return fmt.Errorf("failpoint: delay scenario on %s needs a positive Delay", sc.Site)
	}
	return nil
}

// ParseScenario parses one site:action[:probability][:delay] spec, e.g.
// "vbl-lock-next-at:fail:0.1" or "trylock-acquire:delay:0.05:50us".
func ParseScenario(spec string) (Scenario, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) < 2 {
		return Scenario{}, fmt.Errorf("failpoint: scenario %q: want site:action[:probability][:delay]", spec)
	}
	site, err := ParseSite(parts[0])
	if err != nil {
		return Scenario{}, err
	}
	act, err := ParseAction(parts[1])
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{Site: site, Action: act, Probability: 1}
	for _, part := range parts[2:] {
		if p, err := strconv.ParseFloat(part, 64); err == nil {
			if p <= 0 || p > 1 {
				return Scenario{}, fmt.Errorf("failpoint: scenario %q: probability %g outside (0, 1]", spec, p)
			}
			sc.Probability = p
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return Scenario{}, fmt.Errorf("failpoint: scenario %q: %q is neither a probability nor a duration", spec, part)
		}
		sc.Delay = d
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// ParseScenarios parses a comma-separated scenario list. The keyword
// "shipped" expands to the standard scenario suite (see Shipped).
func ParseScenarios(specs string, seed int64) ([]Scenario, error) {
	var out []Scenario
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if strings.EqualFold(spec, "shipped") {
			out = append(out, Shipped(seed)...)
			continue
		}
		sc, err := ParseScenario(spec)
		if err != nil {
			return nil, err
		}
		sc.Seed = seed + int64(len(out))
		out = append(out, sc)
	}
	return out, nil
}

// Shipped returns the standard chaos suite: one scenario per site
// family, with probabilities low enough that every operation still
// terminates. The chaos conformance tests run the full registry under
// each of these, and scripts/chaos_smoke.sh runs them in CI.
func Shipped(seed int64) []Scenario {
	us := time.Microsecond
	return []Scenario{
		{Site: SiteVBLLockNextAt, Action: ActFail, Probability: 0.2, Seed: seed},
		{Site: SiteVBLLockNextAtValue, Action: ActFail, Probability: 0.2, Seed: seed + 1},
		{Site: SiteLazyValidate, Action: ActFail, Probability: 0.2, Seed: seed + 2},
		{Site: SiteHarrisCAS, Action: ActFail, Probability: 0.2, Seed: seed + 3},
		{Site: SiteUnlink, Action: ActFail, Probability: 0.2, Seed: seed + 4},
		{Site: SiteVBLTraverse, Action: ActYield, Probability: 0.1, Seed: seed + 5},
		{Site: SiteTryLockAcquire, Action: ActDelay, Probability: 0.02, Delay: 5 * us, Seed: seed + 6},
		{Site: SiteShardRoute, Action: ActDelay, Probability: 0.02, Delay: 5 * us, Seed: seed + 7},
		{Site: SiteEpochAdvance, Action: ActFail, Probability: 0.2, Seed: seed + 8},
		{Site: SiteSkipLockNextAt, Action: ActFail, Probability: 0.2, Seed: seed + 9},
		{Site: SiteSkipIndexLink, Action: ActFail, Probability: 0.2, Seed: seed + 10},
		{Site: SiteSkipTraverse, Action: ActYield, Probability: 0.1, Seed: seed + 11},
	}
}

// arm is one armed site's state. Immutable after Arm except for the
// hit counter and the pause gate.
type arm struct {
	action    Action
	threshold uint64 // probability as a fixed-point fraction of 2^64
	delay     time.Duration
	keys      map[int64]struct{} // nil = every key
	seed      uint64             // splitmix64 of the scenario's seed
	hits      atomic.Uint64
	pause     *pauseGate
	scenario  Scenario
}

// Sink receives a copy of every fired failpoint — the hook the flight
// recorder (internal/obs/trace) attaches so captured traces carry the
// exact injection points a chaos run or a figure replay pinned.
// FailpointFired is called from the victim goroutine just before the
// arm's action runs; FailpointReleased is called from the same
// goroutine when it resumes from an ActPause park (the bracket the
// schedule reconstructor turns into ordering constraints). Both must
// be lock-free and allocation-free.
type Sink interface {
	FailpointFired(site Site, action Action, key int64)
	FailpointReleased(site Site, key int64)
}

// Set is a registry of armed failpoints, attached to algorithms the
// way obs.Probes is: a nil *Set means disabled, and every site in
// algorithm code checks the On guard first. The zero value is ready to
// use; arm and disarm are safe under concurrent hits.
type Set struct {
	arms [NumSites]atomic.Pointer[arm]
	// sink, when non-nil, observes fired arms. A plain field: SetSink
	// must happen-before the goroutines that hit sites start, and
	// detaching must happen-after they drain.
	sink Sink
}

// SetSink attaches (or, with nil, detaches) a fired-arm observer. See
// the sink field for the required ordering discipline.
func (s *Set) SetSink(sk Sink) { s.sink = sk }

// NewSet returns an empty failpoint set: every site disarmed.
func NewSet() *Set { return &Set{} }

// Arm installs sc at its site, replacing any previous arm there.
func (s *Set) Arm(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	a := &arm{
		action:    sc.Action,
		threshold: probThreshold(sc.effectiveProbability()),
		delay:     sc.Delay,
		seed:      splitmix64(uint64(sc.Seed)),
		scenario:  sc,
	}
	if len(sc.Keys) > 0 {
		a.keys = make(map[int64]struct{}, len(sc.Keys))
		for _, k := range sc.Keys {
			a.keys[k] = struct{}{}
		}
	}
	if sc.Action == ActPause {
		a.pause = newPauseGate()
	}
	if old := s.arms[sc.Site].Swap(a); old != nil {
		old.release()
	}
	return nil
}

// ArmAll installs every scenario, failing on the first invalid one.
func (s *Set) ArmAll(scs []Scenario) error {
	for _, sc := range scs {
		if err := s.Arm(sc); err != nil {
			return err
		}
	}
	return nil
}

// Disarm removes any arm at site, releasing a goroutine parked at a
// pause arm there.
func (s *Set) Disarm(site Site) {
	if site < NumSites {
		if a := s.arms[site].Swap(nil); a != nil {
			a.release()
		}
	}
}

// DisarmAll removes every arm. The liveness watchdog calls this when
// it fires, so livelocks seeded by probability-1 failures clear, parked
// pause gates release, and the stalled workers can drain.
func (s *Set) DisarmAll() {
	for i := range s.arms {
		if a := s.arms[i].Swap(nil); a != nil {
			a.release()
		}
	}
}

// release spends a removed arm's pause gate (no-op for other actions):
// anything parked there resumes and nothing can park afterwards.
func (a *arm) release() {
	if g := a.pause; g != nil {
		g.claimed.Store(true)
		if g.resumed.CompareAndSwap(false, true) {
			close(g.released)
		}
	}
}

// Armed returns the currently armed scenarios in site order.
func (s *Set) Armed() []Scenario {
	var out []Scenario
	for i := range s.arms {
		if a := s.arms[i].Load(); a != nil {
			out = append(out, a.scenario)
		}
	}
	return out
}

// probThreshold converts a probability in (0, 1] to the fixed-point
// threshold a 64-bit roll is compared against.
func probThreshold(p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * float64(1<<63) * 2)
}

// splitmix64 is the statelessly seedable generator behind the
// probability gate: roll k of an arm is splitmix64(seed+k), so a
// scenario's firing pattern is a pure function of (seed, hit index).
// Arm mixes the scenario's seed through splitmix64 once first; rolling
// from the raw seed would make seeds s and s+1 one stream shifted by a
// hit, and Shipped and ParseScenarios number their sites' seeds
// consecutively.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hit resolves whether an armed scenario fires for this (site, key)
// encounter, applying the key filter and the seeded probability gate.
func (s *Set) hit(site Site, key int64) *arm {
	a := s.arms[site].Load()
	if a == nil {
		return nil
	}
	if a.keys != nil {
		if _, ok := a.keys[key]; !ok {
			return nil
		}
	}
	if a.threshold != ^uint64(0) && splitmix64(a.seed+a.hits.Add(1)) > a.threshold {
		return nil
	}
	return a
}

// Do performs the side-effect actions (delay, yield, pause) armed at
// site, if the scenario fires for key. A fail arm does nothing here:
// failure is only injectable at decision points that consult Fail.
// Call sites must guard with On.
func (s *Set) Do(site Site, key int64) {
	if a := s.hit(site, key); a != nil {
		if sk := s.sink; sk != nil {
			sk.FailpointFired(site, a.action, key)
		}
		a.perform(s.sink, site, key)
	}
}

// Fail performs like Do and additionally reports whether the decision
// point must treat itself as failed (an ActFail arm that fired). Call
// sites must guard with On.
func (s *Set) Fail(site Site, key int64) bool {
	a := s.hit(site, key)
	if a == nil {
		return false
	}
	if sk := s.sink; sk != nil {
		sk.FailpointFired(site, a.action, key)
	}
	a.perform(s.sink, site, key)
	return a.action == ActFail
}

// perform executes the arm's side effect. A pause that actually parked
// reports its release to the sink from the resuming goroutine, so the
// fired/released pair brackets exactly the steps other operations took
// while this one was parked.
func (a *arm) perform(sk Sink, site Site, key int64) {
	switch a.action {
	case ActDelay:
		time.Sleep(a.delay)
	case ActYield:
		runtime.Gosched()
	case ActPause:
		if a.pause.park() && sk != nil {
			sk.FailpointReleased(site, key)
		}
	}
}

// pauseGate is the one-shot rendezvous behind ActPause: the first
// goroutine through claims the gate, signals reached, and blocks until
// released. Later hits pass through untouched.
type pauseGate struct {
	claimed  atomic.Bool
	resumed  atomic.Bool
	reached  chan struct{}
	released chan struct{}
}

func newPauseGate() *pauseGate {
	return &pauseGate{reached: make(chan struct{}), released: make(chan struct{})}
}

// park blocks the first goroutine through the gate and reports whether
// this call was the one that parked (later hits pass through untouched
// and report false).
func (g *pauseGate) park() bool {
	if !g.claimed.CompareAndSwap(false, true) {
		return false // one-shot: somebody already paused here
	}
	close(g.reached)
	<-g.released
	return true
}

// Pause is the test-side handle to a one-shot pause armed with
// PauseAt: wait for a goroutine to park on Reached, then release it
// with Resume.
type Pause struct {
	set  *Set
	site Site
	gate *pauseGate
}

// PauseAt arms a one-shot pause at site, restricted to the given keys
// (all keys when empty), and returns its handle. It replaces any
// previous arm at the site.
func (s *Set) PauseAt(site Site, keys ...int64) (*Pause, error) {
	sc := Scenario{Site: site, Action: ActPause, Probability: 1, Keys: keys}
	if err := s.Arm(sc); err != nil {
		return nil, err
	}
	return &Pause{set: s, site: site, gate: s.arms[site].Load().pause}, nil
}

// Reached is closed once a goroutine has parked at the site.
func (p *Pause) Reached() <-chan struct{} { return p.gate.reached }

// AwaitReached blocks until a goroutine parks at the site or the
// timeout expires.
func (p *Pause) AwaitReached(timeout time.Duration) error {
	select {
	case <-p.gate.reached:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("failpoint: no goroutine reached pause at %s within %v", p.site, timeout)
	}
}

// Resume releases the parked goroutine (if any) and disarms the site.
// Safe to call more than once, and safe to call before anything
// parked — the gate stays claimed, so nothing can park afterwards.
func (p *Pause) Resume() {
	p.set.Disarm(p.site)
	p.gate.claimed.Store(true)
	if p.gate.resumed.CompareAndSwap(false, true) {
		close(p.gate.released)
	}
}

// Injectable is implemented by set algorithms that can carry
// failpoints. SetFailpoints(nil) detaches.
type Injectable interface {
	SetFailpoints(*Set)
}

// Attach connects fps to set if the algorithm supports injection and
// reports whether it did.
func Attach(set any, fps *Set) bool {
	if in, ok := set.(Injectable); ok {
		in.SetFailpoints(fps)
		return true
	}
	return false
}
