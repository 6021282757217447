package audit

import (
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

func newFailureAuditor() *Auditor {
	return New(sim.NewEngine(), 2, 15, 100)
}

func firstDetail(t *testing.T, a *Auditor, sub string) {
	t.Helper()
	vs := a.Violations()
	if len(vs) == 0 {
		t.Fatalf("no violation recorded, want one containing %q", sub)
	}
	if vs[0].Rule != RuleFailureDomain {
		t.Fatalf("violation filed under %s, want %s", vs[0].Rule, RuleFailureDomain)
	}
	if !strings.Contains(vs[0].Detail, sub) {
		t.Fatalf("violation %q does not name the breach (want %q)", vs[0].Detail, sub)
	}
}

// The failure-domain legality rules: a core may die only once, only
// from a settled state, and nothing applied may land on the corpse.
func TestFailureDomainOfflineLegality(t *testing.T) {
	t.Run("DoubleOffline", func(t *testing.T) {
		a := newFailureAuditor()
		a.CoreOffline(0, 0, 0)
		if a.TotalViolations() != 0 {
			t.Fatalf("legal offline flagged: %v", a.Violations())
		}
		a.CoreOffline(0, 0, 0)
		firstDetail(t, a, "already offline")
	})
	t.Run("OfflineMidExec", func(t *testing.T) {
		a := newFailureAuditor()
		a.ExecStart(0, 0)
		a.CoreOffline(0, 0, 0)
		firstDetail(t, a, "exec in flight")
	})
	t.Run("AppliedPStateOnOfflineCore", func(t *testing.T) {
		a := newFailureAuditor()
		a.CoreOffline(1, 0, 0)
		a.GovernorRequest(1, 3) // requests at a corpse are legal...
		if a.TotalViolations() != 0 {
			t.Fatalf("governor request flagged: %v", a.Violations())
		}
		a.PStateApplied(1, 3, 0) // ...applying them is not
		firstDetail(t, a, "on an offline core")
	})
	t.Run("SleepOnOfflineCore", func(t *testing.T) {
		a := newFailureAuditor()
		a.CoreOffline(0, 0, 0)
		a.CStateSleep(0, 2, 0)
		firstDetail(t, a, "on an offline core")
	})
	t.Run("OnlineOnlyFromOffline", func(t *testing.T) {
		a := newFailureAuditor()
		a.CoreOnline(0, 0)
		firstDetail(t, a, "not from offline")
	})
	t.Run("CrashRecoverRoundTripClean", func(t *testing.T) {
		a := newFailureAuditor()
		a.CoreOffline(1, 0, 0)
		a.CoreOnline(1, 0)
		a.ExecStart(1, 0)
		a.ExecEnd(1, 0)
		if a.TotalViolations() != 0 {
			t.Fatalf("legal crash/recover round trip flagged: %v", a.Violations())
		}
	})
}

// The ledger cross-checks with Shed as a first-class outcome: audited
// shed events must match the ledger, and client-send conservation
// subtracts shed requests (they never reach the wire).
func TestFailureDomainShedConservation(t *testing.T) {
	a := newFailureAuditor()
	for i := 0; i < 3; i++ {
		a.Count(ClientSend, 1)
	}
	for i := 0; i < 2; i++ {
		a.Count(Shed, 1)
	}
	fin := Final{
		CoreBusyNs: []int64{0, 0}, CoreCC0Ns: []int64{0, 0},
		CoreCC6: []int64{0, 0}, CoreTrans: []int64{0, 0},
		CoreEnergyJ: []float64{0, 0},
		Issued:      5, Completed: 0, TimedOut: 0, Lost: 3, Shed: 2,
	}
	if rep := a.Finalize(fin); rep.Failed() {
		t.Fatalf("consistent shed ledger flagged: %v", rep.Violations)
	}

	// A torn shed count (audited 2, ledger claims 1) must be caught.
	b := newFailureAuditor()
	for i := 0; i < 4; i++ {
		b.Count(ClientSend, 1)
	}
	b.Count(Shed, 1)
	b.Count(Shed, 1)
	torn := fin
	torn.Lost, torn.Shed = 4, 1
	rep := b.Finalize(torn)
	if !rep.Failed() {
		t.Fatal("torn shed ledger passed the audit")
	}
}
