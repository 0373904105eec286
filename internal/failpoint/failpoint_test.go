package failpoint

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSiteAndActionNamesRoundTrip(t *testing.T) {
	for s := Site(0); s < NumSites; s++ {
		got, err := ParseSite(s.String())
		if err != nil {
			t.Fatalf("ParseSite(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("ParseSite(%q) = %v, want %v", s.String(), got, s)
		}
	}
	for a := Action(0); a < NumActions; a++ {
		got, err := ParseAction(a.String())
		if err != nil {
			t.Fatalf("ParseAction(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("ParseAction(%q) = %v, want %v", a.String(), got, a)
		}
	}
	if _, err := ParseSite("no-such-site"); err == nil {
		t.Fatal("ParseSite accepted an unknown site")
	}
	if _, err := ParseAction("no-such-action"); err == nil {
		t.Fatal("ParseAction accepted an unknown action")
	}
}

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario("vbl-lock-next-at:fail:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Site != SiteVBLLockNextAt || sc.Action != ActFail || sc.Probability != 0.25 {
		t.Fatalf("parsed %+v", sc)
	}
	sc, err = ParseScenario("trylock-acquire:delay:0.5:50us")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Action != ActDelay || sc.Delay != 50*time.Microsecond || sc.Probability != 0.5 {
		t.Fatalf("parsed %+v", sc)
	}
	for _, bad := range []string{
		"vbl-lock-next-at",            // no action
		"nope:fail",                   // unknown site
		"unlink:explode",              // unknown action
		"unlink:fail:2.0",             // probability out of range
		"unlink:delay",                // delay without a duration
		"unlink:fail:banana",          // neither probability nor duration
		"vbl-lock-next-at:fail:0.5:x", // trailing junk
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted", bad)
		}
	}
}

func TestParseScenariosShippedKeyword(t *testing.T) {
	scs, err := ParseScenarios("shipped", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(Shipped(7)) {
		t.Fatalf("shipped expanded to %d scenarios, want %d", len(scs), len(Shipped(7)))
	}
	for _, sc := range Shipped(7) {
		if err := sc.Validate(); err != nil {
			t.Errorf("shipped scenario %s invalid: %v", sc, err)
		}
	}
	scs, err = ParseScenarios("unlink:fail:0.1, harris-cas:yield", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("parsed %d scenarios, want 2", len(scs))
	}
}

func TestScenarioStringRoundTrips(t *testing.T) {
	for _, sc := range Shipped(3) {
		parsed, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", sc.String(), err)
		}
		if parsed.Site != sc.Site || parsed.Action != sc.Action || parsed.Delay != sc.Delay {
			t.Fatalf("round trip of %q lost fields: %+v", sc.String(), parsed)
		}
	}
}

func TestFailFiresDeterministically(t *testing.T) {
	const hits = 10000
	run := func(seed int64) []bool {
		s := NewSet()
		if err := s.Arm(Scenario{Site: SiteUnlink, Action: ActFail, Probability: 0.3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, hits)
		for i := range out {
			out[i] = s.Fail(SiteUnlink, int64(i))
		}
		return out
	}
	a, b := run(42), run(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across identically seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	// The seeded gate should land near its probability; a 30% arm
	// firing outside [25%, 35%] over 10k hits means the roll is broken.
	if fired < hits/4 || fired > 7*hits/20 {
		t.Fatalf("p=0.3 arm fired %d/%d times", fired, hits)
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == hits {
		t.Fatal("different seeds produced identical firing patterns")
	}
}

// TestAdjacentSeedsUncorrelated pins that seeds s and s+1 draw
// unrelated roll streams, not one stream shifted by a hit: Shipped and
// ParseScenarios arm their sites with consecutive seeds.
func TestAdjacentSeedsUncorrelated(t *testing.T) {
	run := func(seed int64, hits int) []bool {
		s := NewSet()
		if err := s.Arm(Scenario{Site: SiteUnlink, Action: ActFail, Probability: 0.5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, hits)
		for i := range out {
			out[i] = s.Fail(SiteUnlink, int64(i))
		}
		return out
	}
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		if a, b := run(seed, 65), run(seed+1, 64); slices.Equal(a[1:], b) {
			t.Errorf("seed %d+1's first 64 firings repeat seed %d's firings 2…65", seed, seed)
		}
	}
}

func TestProbabilityOneAlwaysFires(t *testing.T) {
	s := NewSet()
	if err := s.Arm(Scenario{Site: SiteHarrisCAS, Action: ActFail}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !s.Fail(SiteHarrisCAS, int64(i)) {
			t.Fatalf("probability-1 fail arm did not fire on hit %d", i)
		}
	}
}

func TestKeyFilter(t *testing.T) {
	s := NewSet()
	err := s.Arm(Scenario{Site: SiteVBLLockNextAt, Action: ActFail, Keys: []int64{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Fail(SiteVBLLockNextAt, 7) {
		t.Fatal("fired on a key outside the filter")
	}
	if !s.Fail(SiteVBLLockNextAt, 8) || !s.Fail(SiteVBLLockNextAt, 16) {
		t.Fatal("did not fire on a filtered key")
	}
}

func TestDisarmedSiteNeverFires(t *testing.T) {
	s := NewSet()
	if s.Fail(SiteLazyValidate, 1) {
		t.Fatal("empty set fired")
	}
	if err := s.Arm(Scenario{Site: SiteLazyValidate, Action: ActFail}); err != nil {
		t.Fatal(err)
	}
	s.Disarm(SiteLazyValidate)
	if s.Fail(SiteLazyValidate, 1) {
		t.Fatal("disarmed site fired")
	}
	if err := s.ArmAll(Shipped(1)); err != nil {
		t.Fatal(err)
	}
	if len(s.Armed()) == 0 {
		t.Fatal("ArmAll armed nothing")
	}
	s.DisarmAll()
	if got := s.Armed(); len(got) != 0 {
		t.Fatalf("DisarmAll left %d arms", len(got))
	}
}

func TestDoIgnoresFailArms(t *testing.T) {
	s := NewSet()
	if err := s.Arm(Scenario{Site: SiteShardRoute, Action: ActFail}); err != nil {
		t.Fatal(err)
	}
	// Do on a fail arm must be a no-op (and, in particular, not panic
	// or block); only Fail call sites can inject failure.
	s.Do(SiteShardRoute, 3)
}

func TestPauseOneShot(t *testing.T) {
	s := NewSet()
	p, err := s.PauseAt(SiteVBLTraverse, 5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Do(SiteVBLTraverse, 4) // filtered key: passes through
		s.Do(SiteVBLTraverse, 5) // parks here
	}()
	if err := p.AwaitReached(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("goroutine passed the pause without parking")
	default:
	}
	p.Resume()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Resume did not release the parked goroutine")
	}
	// One-shot: the site is disarmed after Resume, later hits pass.
	s.Do(SiteVBLTraverse, 5)
	p.Resume() // idempotent
}

func TestPauseOnlyFirstGoroutineParks(t *testing.T) {
	s := NewSet()
	p, err := s.PauseAt(SiteUnlink)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	passed := make(chan int, 3)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.Do(SiteUnlink, int64(id))
			passed <- id
		}(i)
	}
	if err := p.AwaitReached(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Exactly one goroutine parks; the other three sail through.
	for i := 0; i < 3; i++ {
		select {
		case <-passed:
		case <-time.After(5 * time.Second):
			t.Fatal("a non-parked goroutine did not pass the one-shot gate")
		}
	}
	p.Resume()
	wg.Wait()
}

func TestResumeBeforeParkIsSafe(t *testing.T) {
	s := NewSet()
	p, err := s.PauseAt(SiteLazyValidate)
	if err != nil {
		t.Fatal(err)
	}
	p.Resume()
	// The gate is spent: nothing can park afterwards.
	done := make(chan struct{})
	go func() { s.Do(SiteLazyValidate, 1); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hit after early Resume parked forever")
	}
}

func TestConcurrentHitsRace(t *testing.T) {
	s := NewSet()
	if err := s.Arm(Scenario{Site: SiteHarrisCAS, Action: ActFail, Probability: 0.5, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < 2000; i++ {
				s.Fail(SiteHarrisCAS, id*2000+i)
				if i%500 == 0 {
					s.Do(SiteHarrisCAS, i)
				}
			}
		}(int64(g))
	}
	// Rearm and disarm concurrently with the hits.
	for i := 0; i < 20; i++ {
		if err := s.Arm(Scenario{Site: SiteHarrisCAS, Action: ActYield, Probability: 0.5}); err != nil {
			t.Fatal(err)
		}
		s.Disarm(SiteHarrisCAS)
		if err := s.Arm(Scenario{Site: SiteHarrisCAS, Action: ActFail, Probability: 0.5, Seed: 9}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestAttach(t *testing.T) {
	s := NewSet()
	var in injectable
	if !Attach(&in, s) {
		t.Fatal("Attach refused an Injectable")
	}
	if in.got != s {
		t.Fatal("Attach did not forward the set")
	}
	if Attach(struct{}{}, s) {
		t.Fatal("Attach accepted a non-Injectable")
	}
}

type injectable struct{ got *Set }

func (i *injectable) SetFailpoints(s *Set) { i.got = s }
