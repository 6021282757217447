package audit

import (
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

// consistentClusterFinal builds a ledger snapshot satisfying all five
// cluster identities with every extension term live: 100 issued, 2
// refused during a total outage, 4 resteers, 5 hedges (2 duplicate
// completions, 1 absorbed duplicate failure), 3 front-end failures, and
// a perturbed interconnect (3 requests and 2 responses dropped by cut
// or lossy legs, 1 copy in transit each way at the snapshot).
func consistentClusterFinal() ClusterFinal {
	return ClusterFinal{
		FrontIssued:       100,
		FrontCompleted:    85,
		FrontFailed:       3,
		FrontUnroutable:   2,
		FrontInFlight:     10,
		Resteers:          4,
		Hedges:            5,
		HedgeDupDone:      2,
		HedgeDupFail:      1,
		FabricReqLost:     3,
		FabricRespLost:    2,
		FabricReqTransit:  1,
		FabricRespTransit: 1,
		NodeIssued:        []uint64{53, 50}, // 100 - 2 unroutable + 4 resteers + 5 hedges - 3 dropped - 1 in transit
		NodeCompleted:     []uint64{45, 45}, // 85 won + 2 hedge dups + 2 orphaned + 1 in transit
		NodeFailed:        []uint64{5, 3},   // 4 resteered + 3 terminal + 1 absorbed dup
		NodeInFlight:      []uint64{3, 2},
	}
}

func TestCheckClusterClean(t *testing.T) {
	rep := CheckCluster(42, consistentClusterFinal())
	if err := rep.Err(); err != nil {
		t.Fatalf("consistent cluster ledger flagged: %v", err)
	}
	if len(rep.Rules) != 1 || rep.Rules[0].Rule != RuleClusterConservation {
		t.Fatalf("report rules = %+v, want exactly %s", rep.Rules, RuleClusterConservation)
	}
	if rep.Rules[0].Checks != 5 {
		t.Fatalf("checks = %d, want all 5 identities evaluated", rep.Rules[0].Checks)
	}
}

// Each identity breach is caught, filed under the cluster rule as a
// global (core -1) violation whose detail names the imbalance.
func TestCheckClusterViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ClusterFinal)
		wantSub string
	}{
		{"lost in hand-off", func(f *ClusterFinal) { f.NodeIssued[0]-- },
			"node issued + unroutable + link-dropped + in-transit != front issued + resteers + hedges"},
		{"front ledger torn", func(f *ClusterFinal) { f.FrontCompleted++; f.NodeCompleted[0]++ },
			"front issued != completed"},
		{"completion double-counted", func(f *ClusterFinal) { f.NodeCompleted[1]++ },
			"node completed != front completed + hedge dups + link-dropped + in-transit responses"},
		{"failure vanished", func(f *ClusterFinal) { f.NodeFailed[0]-- },
			"node failures != resteers + front failed + hedge dup failures"},
		{"liveness skew", func(f *ClusterFinal) { f.NodeInFlight[0]++ },
			"node in-flight + in-transit + link-dropped + hedge dups != front in-flight + hedges"},
		{"orphan vanished", func(f *ClusterFinal) { f.FabricRespLost-- },
			"node completed != front completed + hedge dups + link-dropped + in-transit responses"},
		{"hedge dup failure uncounted", func(f *ClusterFinal) { f.HedgeDupFail-- },
			"node failures != resteers + front failed + hedge dup failures"},
		{"in-flight-at-partition leak", func(f *ClusterFinal) { f.FabricReqTransit-- },
			"node issued + unroutable + link-dropped + in-transit != front issued + resteers + hedges"},
		{"hedge unaccounted", func(f *ClusterFinal) { f.Hedges-- },
			"node issued + unroutable + link-dropped + in-transit != front issued + resteers + hedges"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := consistentClusterFinal()
			tc.mutate(&f)
			rep := CheckCluster(7, f)
			if !rep.Failed() {
				t.Fatal("torn cluster ledger passed the audit")
			}
			v := rep.Violations[0]
			if v.Rule != RuleClusterConservation || v.Core != -1 || v.Time != 7 {
				t.Fatalf("violation misfiled: %+v", v)
			}
			if !strings.Contains(v.Detail, tc.wantSub) {
				t.Fatalf("violation %q does not name the breach (want %q)", v.Detail, tc.wantSub)
			}
		})
	}
}

// The cluster rule merges into a per-run report as its own row — the
// per-run rule rows are untouched, so per-node report bytes are
// identical with or without the cluster layer on top.
func TestCheckClusterMergesIntoRunReport(t *testing.T) {
	run := &Report{Rules: []RuleStat{{Rule: RulePacketConservation, Checks: 9}}}
	run.Merge(CheckCluster(0, consistentClusterFinal()))
	if len(run.Rules) != 2 {
		t.Fatalf("merged report has %d rules, want the run rule plus the cluster rule", len(run.Rules))
	}
	if run.Rules[0].Rule != RulePacketConservation || run.Rules[0].Checks != 9 {
		t.Fatalf("merge disturbed the per-run row: %+v", run.Rules[0])
	}
	if run.Rules[1].Rule != RuleClusterConservation || run.Rules[1].Checks != 5 {
		t.Fatalf("cluster row missing after merge: %+v", run.Rules)
	}
	// Merging a second cluster report sums into the same row by name.
	run.Merge(CheckCluster(0, consistentClusterFinal()))
	if len(run.Rules) != 2 || run.Rules[1].Checks != 10 {
		t.Fatalf("second merge did not sum by name: %+v", run.Rules)
	}
}

// The total-outage failure reason is audited end to end: outage fails
// must balance the NIC's own counter, and a skew in either direction is
// a failure-domain violation.
func TestRingOutageFailIdentity(t *testing.T) {
	drive := func() (*Auditor, Final) {
		a := New(sim.NewEngine(), 2, 15, 100)
		for i := 0; i < 3; i++ {
			a.Count(ClientSend, 1)
			a.Count(NICDeliver, 1)
			a.Count(RingOutageFail, 1)
		}
		fin := Final{
			CoreBusyNs: []int64{0, 0}, CoreCC0Ns: []int64{0, 0},
			CoreCC6: []int64{0, 0}, CoreTrans: []int64{0, 0},
			CoreEnergyJ: []float64{0, 0},
			Issued:      3, Lost: 3, NICOutageFails: 3,
		}
		return a, fin
	}
	a, fin := drive()
	if rep := a.Finalize(fin); rep.Failed() {
		t.Fatalf("consistent outage ledger flagged: %v", rep.Violations)
	}
	b, torn := drive()
	torn.NICOutageFails = 2
	rep := b.Finalize(torn)
	if !rep.Failed() {
		t.Fatal("torn outage counter passed the audit")
	}
	if d := rep.Violations[0].Detail; !strings.Contains(d, "outage") {
		t.Fatalf("violation %q does not name the outage skew", d)
	}
}
