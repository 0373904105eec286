package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

func TestMetaPackUnpack(t *testing.T) {
	cases := []struct {
		worker int32
		kind   Kind
		op     uint8
		aux    uint8
		flags  uint8
	}{
		{0, KindOpBegin, 0, 0, 0},
		{-1, KindEvent, 0, uint8(obs.EvRestartPrev), 0},
		{41, KindOpEnd, uint8(obs.OpRemove), 0, FlagResult},
		{1 << 20, KindFailpointFire, uint8(failpoint.ActPause), uint8(failpoint.SiteVBLLockNextAt), 0xFF},
	}
	for _, c := range cases {
		w, k, op, aux, fl := unpackMeta(packMeta(c.worker, c.kind, c.op, c.aux, c.flags))
		if w != c.worker || k != c.kind || op != c.op || aux != c.aux || fl != c.flags {
			t.Errorf("pack/unpack(%+v) = (%d %v %d %d %d)", c, w, k, op, aux, fl)
		}
	}
}

func TestEmitAndSnapshotOrder(t *testing.T) {
	tr := NewTracer(2, 16)
	tr.OpBegin(0, obs.OpInsert, 7)
	tr.OpBegin(1, obs.OpContains, 9)
	tr.OpEnd(1, obs.OpContains, 9, true)
	tr.OpEnd(0, obs.OpInsert, 7, false)
	c := tr.Snapshot()
	if len(c.Records) != 4 || c.Drops != 0 {
		t.Fatalf("records = %d, drops = %d; want 4, 0", len(c.Records), c.Drops)
	}
	for i := 1; i < len(c.Records); i++ {
		if c.Records[i].Seq <= c.Records[i-1].Seq {
			t.Fatalf("snapshot not seq-sorted: %v", c.Records)
		}
	}
	// Records interleave across the two worker rings in emit order.
	last := c.Records[3]
	if last.Kind != KindOpEnd || last.OpKind() != obs.OpInsert || last.Result() {
		t.Fatalf("last record = %s, want insert op_end result=false", last)
	}
	if c.Records[2].Worker != 1 || !c.Records[2].Result() {
		t.Fatalf("third record = %s, want worker 1 contains hit", c.Records[2])
	}
}

// TestRingWraparound fills one worker ring past its depth and checks
// flight-recorder semantics: the newest records survive, the drop
// counter reports exactly how many were overwritten.
func TestRingWraparound(t *testing.T) {
	const depth = 16
	tr := NewTracer(1, depth)
	const emitted = 100
	for i := 0; i < emitted; i++ {
		tr.OpBegin(0, obs.OpInsert, int64(i))
	}
	c := tr.Snapshot()
	if c.Drops != emitted-depth {
		t.Fatalf("Drops = %d, want %d", c.Drops, emitted-depth)
	}
	if len(c.Records) != depth {
		t.Fatalf("records = %d, want %d", len(c.Records), depth)
	}
	// The survivors are the newest `depth` emissions, in order.
	for i, r := range c.Records {
		if want := int64(emitted - depth + i); r.Key != want {
			t.Fatalf("record %d key = %d, want %d (oldest must be overwritten)", i, r.Key, want)
		}
	}
}

func TestDepthRoundsUpToPowerOfTwo(t *testing.T) {
	tr := NewTracer(1, 100)
	if tr.Depth() != 128 {
		t.Fatalf("Depth() = %d, want 128", tr.Depth())
	}
	if d := NewTracer(1, 0).Depth(); d != DefaultDepth {
		t.Fatalf("Depth() for 0 = %d, want DefaultDepth %d", d, DefaultDepth)
	}
}

// TestConcurrentEmitSnapshot hammers the rings from several emitters —
// including the key-hashed sink path — while snapshots run throughout.
// Under -race this exercises the seqlock publication protocol; every
// record a snapshot accepts must be internally consistent.
func TestConcurrentEmitSnapshot(t *testing.T) {
	tr := NewTracer(4, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.OpBegin(id, obs.OpInsert, int64(i))
				tr.OpEnd(id, obs.OpInsert, int64(i), i%2 == 0)
				tr.ObsEvent(obs.EvRestartPrev, int64(i)) // worker -1: hashed ring
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		c := tr.Snapshot()
		for _, r := range c.Records {
			if r.Kind == KindInvalid || r.Kind >= NumKinds {
				t.Fatalf("torn record surfaced: %s", r)
			}
			switch r.Kind {
			case KindOpBegin, KindOpEnd:
				if r.OpKind() != obs.OpInsert {
					t.Fatalf("span record with wrong op: %s", r)
				}
			case KindEvent:
				if r.Event() != obs.EvRestartPrev {
					t.Fatalf("event record with wrong event: %s", r)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := NewTracer(2, 16)
	tr.RunBegin(3)
	tr.OpBegin(0, obs.OpRemove, 5)
	tr.FailpointFired(failpoint.SiteVBLLockNextAtValue, failpoint.ActPause, 5)
	tr.FailpointReleased(failpoint.SiteVBLLockNextAtValue, 5)
	tr.OpEnd(0, obs.OpRemove, 5, true)
	c := tr.Snapshot()

	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != c.Workers || got.Depth != c.Depth || got.Drops != c.Drops {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	if len(got.Records) != len(c.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(c.Records))
	}
	for i := range c.Records {
		if got.Records[i] != c.Records[i] {
			t.Fatalf("record %d: %s != %s", i, got.Records[i], c.Records[i])
		}
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("NOTATRACE........"))); err == nil {
		t.Fatal("ReadBinary accepted a bad magic")
	}
	// A previous format version with an otherwise well-formed, empty
	// header: its event numbering differs, so it must be refused too.
	old := append([]byte("LSTRACE2"), make([]byte, 24)...)
	if _, err := ReadBinary(bytes.NewReader(old)); err == nil {
		t.Fatal("ReadBinary accepted an LSTRACE2 capture")
	}
}

// TestChromeExportParses checks the Chrome trace-event export is valid
// JSON with the structure Perfetto needs: paired spans become "X"
// events, probe records become "i" instants, every worker has a
// thread-name metadata record.
func TestChromeExportParses(t *testing.T) {
	tr := NewTracer(2, 32)
	tr.OpBegin(0, obs.OpInsert, 5)
	tr.ObsEvent(obs.EvTryLockContended, 5) // attributed to worker 0's open span
	tr.OpEnd(0, obs.OpInsert, 5, true)
	tr.OpBegin(1, obs.OpContains, 9) // left open: must render as instant
	c := tr.Snapshot()

	var buf bytes.Buffer
	if err := c.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TID   int     `json:"tid"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var spans, instants, meta int
	for _, e := range parsed.TraceEvents {
		switch e.Phase {
		case "X":
			spans++
			if e.Name != "insert(5)" || e.TID != 0 {
				t.Errorf("span = %+v, want insert(5) on tid 0", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 1 {
		t.Errorf("complete spans = %d, want 1", spans)
	}
	if instants != 2 { // the probe event + the unpaired contains begin
		t.Errorf("instants = %d, want 2", instants)
	}
	if meta != 3 { // 2 workers + probes track
		t.Errorf("metadata records = %d, want 3", meta)
	}
}

// TestSinkInterfaces nails the tracer to the probe and failpoint sink
// contracts and checks the records carry the right payloads through.
func TestSinkInterfaces(t *testing.T) {
	tr := NewTracer(1, 16)
	var es obs.EventSink = tr
	var fs failpoint.Sink = tr
	es.ObsEvent(obs.EvCASFail, 11)
	fs.FailpointFired(failpoint.SiteVBLTraverse, failpoint.ActDelay, 12)
	fs.FailpointReleased(failpoint.SiteVBLTraverse, 12)
	c := tr.Snapshot()
	if len(c.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(c.Records))
	}
	if r := c.Records[0]; r.Event() != obs.EvCASFail || r.Key != 11 || r.Worker != -1 {
		t.Fatalf("event record = %s", r)
	}
	if r := c.Records[1]; r.Site() != failpoint.SiteVBLTraverse || r.Action() != failpoint.ActDelay {
		t.Fatalf("fire record = %s", r)
	}
	if r := c.Records[2]; r.Kind != KindFailpointRelease || r.Site() != failpoint.SiteVBLTraverse {
		t.Fatalf("release record = %s", r)
	}
}
