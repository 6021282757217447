package experiments

import (
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// auditChecks sums the per-rule check counts of the package audit tally.
func auditChecks() (n uint64) {
	if r := AuditReport(); r != nil {
		for _, rs := range r.Rules {
			n += rs.Checks
		}
	}
	return n
}

// The per-request arm of ablation-perrequest is an ordinary cell: the
// package injection and audit defaults reach it exactly as they reach
// the NMAP and ondemand arms.
func TestAblationPerRequestHonoursDefaults(t *testing.T) {
	const rto = 20 * sim.Millisecond
	SetInjection(faults.Config{WireLossProb: 0.2}, workload.RetryConfig{Timeout: rto})
	defer SetInjection(faults.Config{}, workload.RetryConfig{})
	SetAudit(true)
	defer SetAudit(false)

	cfg := quickCfg()
	before := auditChecks()
	rows, err := perRequestArms(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablation := auditChecks() - before
	for _, r := range rows {
		if r.P99 < rto {
			t.Errorf("%s: p99 %v below the %v RTO — the injected loss never reached the arm", r.Name, r.P99, rto)
		}
	}
	if rows[2].Attempts == 0 {
		t.Error("perrequest row lost its attempted-write counter")
	}

	// The nmap and ondemand arms on their own: whatever the ablation
	// audited beyond them is the per-request arm's report.
	before = auditChecks()
	if _, err := RunSpecs([]Spec{
		{Policy: "nmap", Idle: "menu", Cfg: cfg},
		{Policy: "ondemand", Idle: "menu", Cfg: cfg},
	}); err != nil {
		t.Fatal(err)
	}
	if pair := auditChecks() - before; ablation <= pair {
		t.Fatalf("ablation audited %d checks, the nmap+ondemand arms alone %d: the perrequest arm carried no report",
			ablation, pair)
	}
}
