package audit

import (
	"errors"
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

// Every datapath hook must be a no-op on a nil auditor — the callers
// invoke them unconditionally, relying on this.
func TestNilAuditorHooksAreNoOps(t *testing.T) {
	var a *Auditor
	for leg := Leg(0); leg < numLegs; leg++ {
		a.Count(leg, 1)
	}
	a.TxStart(2)
	a.TxSegments(2)
	_ = a.TxLedger()
	a.NAPISchedule(0)
	a.NAPIFold(0)
	a.NAPIPoll(0)
	a.NAPIMigrate(0)
	a.NAPIComplete(0)
	a.ExecStart(0, 0)
	a.ExecEnd(0, 0)
	a.CStateSleep(0, 2, 0)
	a.CStateWake(0, 2, 0)
	a.PStateApplied(0, 1, 0)
	if !a.GovernorRequest(0, 1) {
		t.Fatal("nil auditor must not veto governor requests")
	}
	if a.TotalViolations() != 0 || a.Violations() != nil {
		t.Fatal("nil auditor reported state")
	}
}

func TestViolationErrorRendering(t *testing.T) {
	v := Violation{Rule: RulePacketConservation, Time: 42, Core: 3, Detail: "x != y"}
	s := v.Error()
	for _, want := range []string{string(RulePacketConservation), "core 3", "x != y"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation %q missing %q", s, want)
		}
	}
	g := Violation{Rule: RuleEnergySanity, Time: 42, Core: -1, Detail: "over"}
	if strings.Contains(g.Error(), "core") {
		t.Errorf("global violation %q should not name a core", g.Error())
	}
}

func TestReportErrCarriesFirstViolationAndCount(t *testing.T) {
	var nilRep *Report
	if nilRep.Failed() || nilRep.Err() != nil {
		t.Fatal("nil report must be clean")
	}
	first := Violation{Rule: RuleCycleAccounting, Time: 7, Core: 1, Detail: "busy > cc0"}
	rep := &Report{Violations: []Violation{first}, Total: 3}
	err := rep.Err()
	var got Violation
	if !errors.As(err, &got) || got != first {
		t.Fatalf("Err() = %v, want to unwrap to the first violation", err)
	}
	if !strings.Contains(err.Error(), "2 more") {
		t.Fatalf("Err() = %v, want the remaining count", err)
	}
	one := &Report{Violations: []Violation{first}, Total: 1}
	if one.Err() != error(first) {
		t.Fatalf("single-violation Err() = %v, want the bare violation", one.Err())
	}
}

func TestReportMergeSumsByRuleName(t *testing.T) {
	a := &Report{Rules: []RuleStat{
		{Rule: RulePacketConservation, Checks: 10},
		{Rule: RuleCycleAccounting, Checks: 5, Violations: 1},
	}, Total: 1, Violations: []Violation{{Rule: RuleCycleAccounting}}}
	b := &Report{Rules: []RuleStat{
		{Rule: RuleCycleAccounting, Checks: 7},
		{Rule: RuleEnergySanity, Checks: 2},
	}}
	a.Merge(b)
	a.Merge(nil) // must be a no-op
	want := map[Rule]uint64{RulePacketConservation: 10, RuleCycleAccounting: 12, RuleEnergySanity: 2}
	for _, rs := range a.Rules {
		if rs.Checks != want[rs.Rule] {
			t.Errorf("rule %s merged to %d checks, want %d", rs.Rule, rs.Checks, want[rs.Rule])
		}
		delete(want, rs.Rule)
	}
	if len(want) != 0 {
		t.Errorf("rules missing after merge: %v", want)
	}
	if a.Total != 1 || len(a.Violations) != 1 {
		t.Errorf("merge corrupted the violation log: total=%d len=%d", a.Total, len(a.Violations))
	}
}

func TestReportMergeCapsViolationDetail(t *testing.T) {
	a, b := &Report{}, &Report{}
	for i := 0; i < maxDetail; i++ {
		a.Violations = append(a.Violations, Violation{Core: i})
		b.Violations = append(b.Violations, Violation{Core: maxDetail + i})
	}
	a.Total, b.Total = uint64(maxDetail), uint64(maxDetail)
	a.Merge(b)
	if len(a.Violations) != maxDetail {
		t.Fatalf("violation log grew past the cap: %d", len(a.Violations))
	}
	if a.Total != 2*uint64(maxDetail) {
		t.Fatalf("total %d, want %d (the cap bounds detail, not the count)", a.Total, 2*maxDetail)
	}
}

func TestReportCloneIsDeep(t *testing.T) {
	if (*Report)(nil).Clone() != nil {
		t.Fatal("clone of nil must be nil")
	}
	r := &Report{Rules: []RuleStat{{Rule: RuleNAPILegality, Checks: 4}}, Total: 0}
	cp := r.Clone()
	r.Rules[0].Checks = 99
	if cp.Rules[0].Checks != 4 {
		t.Fatal("clone shares backing storage with the original")
	}
}

// The detail cap bounds memory, never the count: an auditor recording
// thousands of breaches keeps full tallies and the first maxDetail
// details.
func TestAuditorViolationDetailCapped(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, 1, 15, 100)
	for i := 0; i < 100; i++ {
		a.PStateApplied(0, 99, 0) // out of the table ⇒ violation each time
	}
	if got := a.TotalViolations(); got != 100 {
		t.Fatalf("total violations %d, want 100", got)
	}
	if got := len(a.Violations()); got != maxDetail {
		t.Fatalf("detailed violations %d, want the cap %d", got, maxDetail)
	}
	rep := a.Finalize(Final{CoreBusyNs: []int64{0}, CoreCC0Ns: []int64{0},
		CoreCC6: []int64{0}, CoreTrans: []int64{0}, CoreEnergyJ: []float64{0}})
	if !rep.Failed() || rep.Total < 100 {
		t.Fatalf("report lost violations: %+v", rep.Total)
	}
}
