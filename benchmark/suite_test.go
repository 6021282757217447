package main

import (
	"testing"

	"nmapsim/internal/sim"
)

// testSpan is long enough for the fleet's node crash and link faults to
// fire and drop copies inside the run.
const testSpan = 400 * sim.Millisecond

// TestSuiteDeterministic runs every workload twice at a short span and
// checks the correctness gate, digest equality, and that each workload
// exercises what its catalogue entry claims — and only the fleet
// exercises the fleet.
func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range catalogue {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.run(1, testSpan)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := w.run(1, testSpan)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Fatalf("physics digests differ: %q vs %q", a.Digest, b.Digest)
			}
			if a.counts != b.counts || a.Events != b.Events {
				t.Errorf("counts differ:\n%+v\n%+v", a.counts, b.counts)
			}
			c := a.counts
			nonZero := map[string]uint64{
				"requests":   c.Issued,
				"interrupts": c.Interrupts,
			}
			fleet := w.name == "fleet4-gray-audit"
			switch w.name {
			case "mc-high-nmap":
				nonZero["polled packets"] = c.PktPoll
				nonZero["P-state transitions"] = uint64(c.PStateTrans)
			case "mc-low-ondemand":
				nonZero["CC6 entries"] = uint64(c.CC6Entries)
				nonZero["P-state transitions"] = uint64(c.PStateTrans)
			case "nginx-med-nmap":
				if ev := float64(a.Events) / float64(c.Issued); ev < 30 {
					t.Errorf("%.1f events per request, want nginx's Tx-heavy > 30", ev)
				}
			case "fleet4-gray-audit":
				nonZero["hedges"] = c.Hedges
				nonZero["client retransmissions"] = c.Retransmits
				nonZero["mark-downs"] = c.MarkDowns
				nonZero["fabric losses"] = c.FabricLost
			case "fig12-quick-sweep":
				nonZero["polled packets"] = c.PktPoll
				nonZero["CC6 entries"] = uint64(c.CC6Entries)
			}
			if w.name != "fig12-quick-sweep" {
				nonZero["engine events"] = a.Events
			}
			for what, n := range nonZero {
				if n == 0 {
					t.Errorf("no %s", what)
				}
			}
			if !fleet && c.Hedges+c.Resteers+c.MarkDowns+c.FabricLost > 0 {
				t.Errorf("fleet counters moved outside the fleet: %+v", c)
			}
			if c.Violations != 0 {
				t.Errorf("%d audit violations", c.Violations)
			}
		})
	}
}
