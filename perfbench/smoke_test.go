package main

import (
	"io"
	"testing"
)

// TestSmoke runs every workload briefly, traced (so both the untraced
// and the traced pass run), with the oracle checking every verdict
// served in set-up, in the measured phases and in the decomposition.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixed history and a rig per workload")
	}
	for _, name := range []string{"corpus-cold", "fleet-replay", "campaign-fanout"} {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 11, seconds: 0.3, trace: true, clients: 2, rounds: 2, minSamples: 20}
			m, err := measureRun(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			rep := m.rep
			if m.u.attempted == 0 || m.t.attempted == 0 {
				t.Fatalf("attempted %d untraced, %d traced", m.u.attempted, m.t.attempted)
			}
			for _, vc := range []verdictCheck{rep.Measured, rep.Other} {
				if vc.Served == 0 || vc.Failed != 0 || vc.Mismatched != 0 {
					t.Errorf("oracle: %+v", vc)
				}
			}
			for _, p := range rep.Problems {
				t.Error(p)
			}
			if len(m.dec.run) < cfg.minSamples {
				t.Errorf("decomposition made %d calls, want at least %d", len(m.dec.run), cfg.minSamples)
			}
		})
	}
}
