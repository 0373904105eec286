package mem

import (
	"testing"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

// tnode stands in for a list node: one plain field the recycling
// rewrites.
type tnode struct {
	val int64
}

// churn performs one full allocate-retire cycle on its own pin, which
// is the most epoch progress a single goroutine can make per pin (an
// advance needs every pinned worker at the current epoch, so a worker
// can witness at most one advance per pin).
func churn(a *Arena[tnode]) {
	g := a.Pin()
	p := g.Get()
	p.val = -1
	g.Retire(p)
	g.Unpin()
}

func TestRecycleRoundTrip(t *testing.T) {
	a := New[tnode](Options{SlabSize: 4, AdvanceEvery: 1})
	g := a.Pin()
	p1 := g.Get()
	p1.val = 42
	g.Retire(p1)
	g.Unpin()

	// Drive epochs forward until the grace period expires and p1 is
	// recycled back out of Get.
	seen := false
	for i := 0; i < 100 && !seen; i++ {
		g := a.Pin()
		p := g.Get()
		if p == p1 {
			seen = true
		}
		g.Retire(p)
		g.Unpin()
	}
	if !seen {
		t.Fatalf("retired node was never recycled: %+v", a.Stats())
	}
	st := a.Stats()
	if st.Recycled == 0 {
		t.Errorf("Stats.Recycled = 0 after observed reuse")
	}
	if st.Epoch < 3 {
		t.Errorf("Stats.Epoch = %d, want >= 3 after recycling", st.Epoch)
	}
}

func TestRecycleWaitsTwoEpochs(t *testing.T) {
	a := New[tnode](Options{AdvanceEvery: 1})
	e0 := a.Stats().Epoch

	g := a.Pin()
	p := g.Get()
	g.Retire(p) // retired at e0: recyclable only once the epoch is e0+2
	g.Unpin()

	if st := a.Stats(); st.Recycled != 0 {
		t.Fatalf("node recycled at epoch %d, %d epochs before its grace period expired", st.Epoch, e0+2-st.Epoch)
	}
	churn(a) // advances to e0+1 at most
	churn(a) // advances to e0+2; p's bucket expires here
	churn(a) // next Get may scavenge it
	st := a.Stats()
	if st.Epoch < e0+2 {
		t.Fatalf("epoch %d after three churn cycles, want >= %d", st.Epoch, e0+2)
	}
	if st.Recycled == 0 {
		t.Errorf("nothing recycled at epoch %d though the first retire's grace period expired", st.Epoch)
	}
}

func TestPinBlocksAdvanceAndRecycle(t *testing.T) {
	a := New[tnode](Options{AdvanceEvery: 1})
	e0 := a.Stats().Epoch

	// Park one pin at e0 (a second worker does the churning; the
	// arena serves any number of concurrent pins per goroutine).
	parked := a.Pin()
	for i := 0; i < 50; i++ {
		churn(a)
	}
	st := a.Stats()
	if st.Epoch > e0+1 {
		t.Errorf("epoch advanced to %d past a worker pinned at %d (max legal %d)", st.Epoch, e0, e0+1)
	}
	if st.Recycled != 0 {
		t.Errorf("%d nodes recycled while a pin from epoch %d was live", st.Recycled, e0)
	}

	// Releasing the pin unblocks the world.
	parked.Unpin()
	for i := 0; i < 50; i++ {
		churn(a)
	}
	st = a.Stats()
	if st.Epoch < e0+2 {
		t.Errorf("epoch %d after unpin and churn, want >= %d", st.Epoch, e0+2)
	}
	if st.Recycled == 0 {
		t.Errorf("nothing recycled after the blocking pin released")
	}
}

func TestFreeSkipsGracePeriod(t *testing.T) {
	a := New[tnode](Options{})
	g := a.Pin()
	defer g.Unpin()
	p := g.Get()
	g.Free(p) // never published: no grace period needed
	if q := g.Get(); q != p {
		t.Errorf("Get after Free returned a different node (%p, want %p)", q, p)
	}
}

// TestReuseClassNeverCarves pins ReuseClass's contract: nil while the
// class has nothing to recycle (no slab is carved, nothing is counted),
// the caller's own node back once freed into that class, and other
// classes untouched.
func TestReuseClassNeverCarves(t *testing.T) {
	a := New[tnode](Options{Classes: 2})
	g := a.Pin()
	defer g.Unpin()
	if p := g.ReuseClass(1); p != nil {
		t.Fatalf("ReuseClass on an empty arena = %p, want nil", p)
	}
	own := &tnode{}
	g.FreeClass(own, 1)
	if p := g.ReuseClass(0); p != nil {
		t.Fatalf("ReuseClass(0) = %p, a node freed into class 1", p)
	}
	if p := g.ReuseClass(1); p != own {
		t.Fatalf("ReuseClass(1) = %p, want the freed node %p", p, own)
	}
	if st := a.Stats(); st.Slabs != 0 || st.Allocs != 1 {
		t.Errorf("Stats = %+v, want no slab and one alloc", st)
	}
}

func TestSlabCarving(t *testing.T) {
	a := New[tnode](Options{SlabSize: 8})
	g := a.Pin()
	defer g.Unpin()
	for i := 0; i < 20; i++ {
		g.Get()
	}
	st := a.Stats()
	if st.Allocs != 20 {
		t.Errorf("Stats.Allocs = %d, want 20", st.Allocs)
	}
	if st.Slabs != 3 {
		t.Errorf("Stats.Slabs = %d, want 3 (20 nodes / slab of 8)", st.Slabs)
	}
}

func TestWorkerReuseAcrossPins(t *testing.T) {
	a := New[tnode](Options{})
	for i := 0; i < 200; i++ {
		g := a.Pin()
		g.Free(g.Get())
		g.Unpin()
	}
	// Sequential pins reuse one worker via the pool (or reclaim it
	// from the registry if the GC cleared the pool); growth would mean
	// leaked worker state.
	if st := a.Stats(); st.Workers > 2 {
		t.Errorf("Stats.Workers = %d after sequential pins, want 1 (2 if the GC intervened)", st.Workers)
	}
}

func TestZeroGuardIsInert(t *testing.T) {
	var a *Arena[tnode]
	g := a.Pin()
	if g.Active() {
		t.Fatal("nil arena produced an active guard")
	}
	g.Unpin() // must not panic
}

func TestProbesAndFailpoint(t *testing.T) {
	a := New[tnode](Options{AdvanceEvery: 1})
	p := obs.NewProbes()
	a.SetProbes(p)
	fps := failpoint.NewSet()
	a.SetFailpoints(fps)

	// Probability-1 advance failure freezes the epoch (and therefore
	// recycling) but nothing else.
	if err := fps.Arm(failpoint.Scenario{Site: failpoint.SiteEpochAdvance, Action: failpoint.ActFail, Probability: 1}); err != nil {
		t.Fatal(err)
	}
	e0 := a.Stats().Epoch
	for i := 0; i < 20; i++ {
		churn(a)
	}
	st := a.Stats()
	if st.Epoch != e0 {
		t.Errorf("epoch advanced to %d under a probability-1 advance failpoint", st.Epoch)
	}
	if st.Recycled != 0 {
		t.Errorf("%d nodes recycled with the epoch frozen", st.Recycled)
	}

	fps.Disarm(failpoint.SiteEpochAdvance)
	for i := 0; i < 20; i++ {
		churn(a)
	}
	if st := a.Stats(); st.Recycled == 0 {
		t.Errorf("nothing recycled after disarming the advance failpoint")
	}

	snap := p.Snapshot()
	for _, ev := range []obs.Event{obs.EvNodeAlloc, obs.EvLimboRetire, obs.EvEpochAdvance, obs.EvNodeRecycle} {
		if snap[ev] == 0 {
			t.Errorf("probe %s = 0 after churn", ev)
		}
	}
}

// TestRecycleProbeCountsNodes retires several nodes per pin, so limbo
// buckets hold many nodes each, and requires the node_recycle probe to
// count recycled nodes, not buckets: at quiescence it equals
// Stats().Recycled.
func TestRecycleProbeCountsNodes(t *testing.T) {
	a := New[tnode](Options{AdvanceEvery: 1})
	p := obs.NewProbes()
	a.SetProbes(p)
	for i := 0; i < 50; i++ {
		g := a.Pin()
		for j := 0; j < 8; j++ {
			g.Retire(g.Get())
		}
		g.Unpin()
	}
	st := a.Stats()
	if st.Recycled < 8 {
		t.Fatalf("only %d nodes recycled; the test needs whole buckets", st.Recycled)
	}
	if got := p.Snapshot()[obs.EvNodeRecycle]; got != st.Recycled {
		t.Fatalf("node_recycle probe = %d, Stats().Recycled = %d", got, st.Recycled)
	}
}

func TestStatsConservation(t *testing.T) {
	a := New[tnode](Options{SlabSize: 16, AdvanceEvery: 2})
	for i := 0; i < 500; i++ {
		churn(a)
	}
	st := a.Stats()
	if st.Recycled > st.Retired {
		t.Errorf("Recycled %d > Retired %d", st.Recycled, st.Retired)
	}
	// Every Get was served by a slab slot or a recycled node; slabs
	// provide Slabs*16 slots and recycling provides Recycled nodes.
	if max := st.Slabs*16 + st.Recycled; st.Allocs > max {
		t.Errorf("Allocs %d exceeds slab capacity + recycled = %d", st.Allocs, max)
	}
}
