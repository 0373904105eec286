package obs

import (
	"sync"
	"testing"
	"time"
)

// TestProbesConcurrentSum is the shard-correctness test: many goroutines
// hammering Inc across keys must sum, per event, to exactly the number
// of increments issued. Run under -race this also proves the shards
// synchronize properly.
func TestProbesConcurrentSum(t *testing.T) {
	const (
		workers = 8
		perW    = 12_000
	)
	p := NewProbes()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Spread keys so every stripe sees traffic.
				key := int64(w*perW + i)
				p.Inc(Event(i%int(NumEvents)), key)
			}
		}(w)
	}
	wg.Wait()
	s := p.Snapshot()
	if got, want := s.Total(), uint64(workers*perW); got != want {
		t.Fatalf("Snapshot total = %d, want %d", got, want)
	}
	// Each worker walks i%NumEvents over [0, perW), so an event's count
	// is perW/NumEvents, plus one for the events before perW%NumEvents.
	for ev := Event(0); ev < NumEvents; ev++ {
		per := uint64(perW / int(NumEvents))
		if int(ev) < perW%int(NumEvents) {
			per++
		}
		per *= workers
		if s[ev] != per {
			t.Errorf("event %s = %d, want %d", ev, s[ev], per)
		}
	}
}

func TestSnapshotAddSubTotal(t *testing.T) {
	p := NewProbes()
	p.Inc(EvCASFail, 1)
	p.Inc(EvCASFail, 2)
	p.Inc(EvLogicalDelete, 3)
	before := p.Snapshot()
	p.Inc(EvCASFail, 4)
	delta := p.Snapshot().Sub(before)
	if delta[EvCASFail] != 1 || delta.Total() != 1 {
		t.Fatalf("delta = %v, want exactly one cas_fail", delta)
	}
	sum := before.Add(delta)
	if sum != p.Snapshot() {
		t.Fatalf("before + delta = %v, want %v", sum, p.Snapshot())
	}
}

// TestEventNamesStable pins the JSON/expvar identifiers: renaming one
// breaks every committed BENCH_*.json, so a rename must fail here first.
func TestEventNamesStable(t *testing.T) {
	want := map[Event]string{
		EvRestartPrev:          "restart_prev",
		EvRestartHead:          "restart_head",
		EvTryLockContended:     "trylock_contended",
		EvValFailDeleted:       "valfail_deleted",
		EvValFailSucc:          "valfail_succ",
		EvValFailValue:         "valfail_value",
		EvCASFail:              "cas_fail",
		EvLogicalDelete:        "logical_delete",
		EvPhysicalUnlink:       "physical_unlink",
		EvHelpedUnlink:         "helped_unlink",
		EvRetryEscalateHead:    "retry_escalate_head",
		EvRetryEscalateBackoff: "retry_escalate_backoff",
		EvNodeAlloc:            "node_alloc",
		EvNodeRecycle:          "node_recycle",
		EvLimboRetire:          "limbo_retire",
		EvEpochAdvance:         "epoch_advance",
		EvBatchWindowRestart:   "batch_window_restart",
		EvBatchSplit:           "batch_split",
		EvSkipRestartL0:        "skip_restart_l0",
		EvSkipIndexLinkRetry:   "skip_index_link_retry",
		EvSkipIndexUnlink:      "skip_index_unlink",
		EvSkipTowerHeight:      "skip_tower_height",
	}
	if len(want) != int(NumEvents) {
		t.Fatalf("test covers %d events, package has %d", len(want), NumEvents)
	}
	for ev, name := range want {
		if ev.String() != name {
			t.Errorf("event %d = %q, want %q", ev, ev.String(), name)
		}
	}
	m := Snapshot{}.Map()
	if len(m) != int(NumEvents) {
		t.Errorf("Map has %d keys, want %d (zeros must be included)", len(m), NumEvents)
	}
}

func TestOnGuard(t *testing.T) {
	var p *Probes
	if On(p) {
		t.Error("On(nil) = true")
	}
	if got := On(NewProbes()); got != Compiled {
		t.Errorf("On(non-nil) = %v, want Compiled (%v)", got, Compiled)
	}
}

type attachable struct{ p *Probes }

func (a *attachable) SetProbes(p *Probes) { a.p = p }

func TestAttach(t *testing.T) {
	a := &attachable{}
	p := NewProbes()
	if !Attach(a, p) {
		t.Fatal("Attach to Instrumented type = false")
	}
	if a.p != p {
		t.Fatal("Attach did not forward the probes")
	}
	if Attach(struct{}{}, p) {
		t.Error("Attach to plain struct = true")
	}
}

func TestRecorderMergeAndPercentiles(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	for i := 0; i < 100; i++ {
		a.Record(OpContains, time.Microsecond)
		b.Record(OpInsert, 2*time.Microsecond)
	}
	a.Merge(b)
	if n := a.Count(); n != 200 {
		t.Fatalf("merged Count = %d, want 200", n)
	}
	pc := a.Percentiles(OpContains)
	pi := a.Percentiles(OpInsert)
	if pc.Count != 100 || pi.Count != 100 {
		t.Fatalf("per-op counts = %d/%d, want 100/100", pc.Count, pi.Count)
	}
	if a.Percentiles(OpRemove).Count != 0 {
		t.Error("remove histogram has samples from nowhere")
	}
	// 1µs lands in [512, 1024); all its percentiles must stay there.
	if pc.P50 < 512 || pc.P999 > 1024 {
		t.Errorf("contains percentiles [%v, %v] escaped bucket [512, 1024]", pc.P50, pc.P999)
	}
}

func TestOpKindNames(t *testing.T) {
	want := map[OpKind]string{OpContains: "contains", OpInsert: "insert", OpRemove: "remove", OpScan: "scan"}
	if len(want) != int(NumOps) {
		t.Fatalf("test covers %d kinds, package has %d", len(want), NumOps)
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("kind %d = %q, want %q", op, op.String(), name)
		}
	}
}
