package main

import (
	"fmt"
	"os"
	"path/filepath"

	"listset"
	"listset/internal/obs"
	"listset/internal/obs/trace"
	"listset/internal/schedule"
)

// figureReplay drives the deterministic Figure 2/3 failpoint replays
// under the flight recorder and machine-checks the round trip through
// listset.AuditReplay: capture → operation history → linearizability,
// and capture → checkpointed spans → schedule.Lift → the paper's
// accepted schedule. For Figure 2
// it additionally certifies the separation the figure exists to show:
// the lifted schedule is VBL-accepted and Lazy-rejected. When traceDir
// is non-empty, each replay's capture is written there in the compact
// binary format (figure2.trace, figure3.trace) for cmd/tracecat.
func figureReplay(traceDir string) error {
	if !obs.Compiled {
		return fmt.Errorf("built with -tags obsoff: the captures hold no restart events, which ScheduleOps needs to lift a restarted operation; rebuild without obsoff")
	}
	replays := []struct {
		name string
		run  func(*trace.Tracer) ([]int64, error)
		// lazyRejected asserts the lifted schedule separates VBL from
		// Lazy (Figure 2's claim; Figure 3's separation is from Harris,
		// whose adjusted model Lift would have to target separately).
		lazyRejected bool
	}{
		{"figure2", listset.ReplayFigure2, true},
		{"figure3", listset.ReplayFigure3, false},
	}
	for _, rp := range replays {
		c, s, err := listset.AuditReplay(rp.run)
		if err != nil {
			return fmt.Errorf("%s: %w", rp.name, err)
		}
		if rp.lazyRejected && schedule.Accepts(schedule.AlgLazy, s) {
			return fmt.Errorf("%s: lifted schedule should separate VBL from Lazy but Lazy accepts it", rp.name)
		}
		sep := ""
		if rp.lazyRejected {
			sep = ", Lazy-rejected"
		}
		fmt.Printf("%s: %d records -> %d ops linearizable -> VBL-accepted schedule (%d events%s)\n",
			rp.name, len(c.Records), len(s.Ops), len(s.Events), sep)

		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(traceDir, rp.name+".trace")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = c.WriteBinary(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("%s: writing %s: %w", rp.name, path, err)
			}
			fmt.Printf("%s: capture -> %s\n", rp.name, path)
		}
	}
	return nil
}
