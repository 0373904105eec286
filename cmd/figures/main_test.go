package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"listset/internal/harness"
	"listset/internal/workload"
)

func TestParseThreadsDefault(t *testing.T) {
	got, err := parseThreads("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("default thread list %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]*2 {
			t.Fatalf("default thread list not powers of two: %v", got)
		}
	}
}

func TestParseThreadsExplicit(t *testing.T) {
	got, err := parseThreads("1, 3,7")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("parsed %v", got)
	}
}

func TestParseThreadsRejectsGarbage(t *testing.T) {
	for _, in := range []string{"x", "0", "-2", "1,,2", "1,2,three"} {
		if _, err := parseThreads(in); err == nil {
			t.Errorf("parseThreads(%q) accepted", in)
		}
	}
}

func TestCandidatesResolve(t *testing.T) {
	cands := candidates(0, 0, "vbl", "lazy")
	if len(cands) != 2 || cands[0].Name != "vbl" || cands[1].Name != "lazy" {
		t.Fatalf("candidates = %+v", cands)
	}
	// Factories must build fresh sets.
	s := cands[0].New()
	if !s.Insert(1) || !s.Contains(1) {
		t.Fatal("candidate factory produced a broken set")
	}
}

func TestCandidatesPanicOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown candidate name did not panic")
		}
	}()
	candidates(0, 0, "no-such-impl")
}

func TestProtocolZeroValueUsable(t *testing.T) {
	// The workload configs used by the figure drivers must validate.
	for _, update := range []int{0, 20, 100} {
		for _, r := range []int64{50, 200, 2000, 20000} {
			cfg := workload.Config{UpdatePercent: update, Range: r}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("figure workload %v invalid: %v", cfg, err)
			}
		}
	}
}

// TestFigureReportsBuiltShardsAndArena runs one tiny sweep of the
// sharded arena skip index through the figures' helpers: its JSON row
// must say "arena": true and carry the shard count the partitioner
// built (3 requested round up to 4).
func TestFigureReportsBuiltShardsAndArena(t *testing.T) {
	p := protocol{
		cell:    harness.Config{Duration: 5 * time.Millisecond, Warmup: time.Millisecond, Runs: 1, Seed: 1},
		threads: []int{1},
		reports: new([]harness.JSONReport),
	}
	runAndReport(p, "labels", candidates(3, 2000, "vbskip-arena"), workload.Config{UpdatePercent: 20, Range: 2000}, "")
	if len(*p.reports) != 1 {
		t.Fatalf("%d reports, want 1", len(*p.reports))
	}
	js, err := json.Marshal((*p.reports)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"impl":"vbskip-arena-s3"`, `"shards":4`, `"arena":true`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("report lacks %s: %s", want, js)
		}
	}
}
