package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// The metric tables are restated in BENCHMARK.json; keep them equal.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want [][2]string) {
		var g [][2]string
		for _, m := range got {
			g = append(g, [2]string{m.Name, m.Unit})
		}
		if !slices.Equal(g, want) {
			t.Errorf("%s in BENCHMARK.json = %v, program reports %v", what, g, want)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("workloads in BENCHMARK.json = %s, program has %s", got, workloadNames())
	}
}

func TestInitialKeysAreHalfTheRangeAndSeeded(t *testing.T) {
	w := findWorkload("list-contended")
	a, b := w.initialKeys(7), w.initialKeys(7)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different keys")
	}
	if slices.Equal(a, w.initialKeys(8)) {
		t.Fatal("different seeds gave the same keys")
	}
	if len(a) != 64 || !slices.IsSorted(a) || a[0] < w.lo || a[len(a)-1] >= w.hi {
		t.Fatalf("keys %v: want 64 ascending keys in [%d, %d)", a, w.lo, w.hi)
	}
}

func TestCheckScanRejectsImpossibleResults(t *testing.T) {
	for _, c := range []struct {
		out  []int64
		good bool
	}{
		{[]int64{10, 11, 19}, true},
		{nil, true},
		{[]int64{11, 10}, false},
		{[]int64{10, 10}, false},
		{[]int64{9}, false},
		{[]int64{20}, false},
	} {
		if got := checkScan(c.out, 10, 20) == ""; got != c.good {
			t.Errorf("checkScan(%v, 10, 20) accepted = %v, want %v", c.out, got, c.good)
		}
	}
}

// A short run of every workload completes, checks clean and prints
// every metric of its mode, measured, on its last line; a traced run
// prints the whole layer table on the line before.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 10^6-key indexes")
	}
	type value struct {
		Value *float64
		Unit  string
	}
	for _, w := range workloads {
		for trace, defs := range [][][2]string{endToEnd, perLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "--out", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			last := lines[len(lines)-1]
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]value
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%v: last line %q: %v", args, last, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v failed=%d attempted=%d\n%s", args, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d[0]]
				if !ok || m.Unit != d[1] || m.Value == nil {
					t.Errorf("%v: metric %s missing, unmeasured or not in %s", args, d[0], d[1])
				} else if trace == 0 && *m.Value <= 0 {
					t.Errorf("%v: end-to-end %s = %v, want > 0", args, d[0], *m.Value)
				}
			}
			if trace == 0 {
				continue
			}
			var table struct{ Layers map[string]value }
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &table); err != nil {
				t.Fatalf("%v: layer line %q: %v", args, lines[len(lines)-2], err)
			}
			for _, d := range layerTable {
				if m, ok := table.Layers[d[0]]; !ok || m.Unit != d[1] {
					t.Errorf("%v: layer metric %s missing or not in %s", args, d[0], d[1])
				}
			}
		}
	}
}
