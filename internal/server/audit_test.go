package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/governor"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// auditCfg is a short but busy run: high load on a small ring with
// faults, retries and a bounded socket queue, so every datapath edge the
// auditor watches — ring drops, sockq drops, wire losses, retransmits,
// C-state sleeps, P-state transitions — actually fires.
func auditCfg(seed uint64) Config {
	return Config{
		Seed:     seed,
		Level:    workload.High,
		Warmup:   20 * sim.Millisecond,
		Duration: 80 * sim.Millisecond,
		NICRing:  64,
		SockQCap: 32,
		Audit:    true,
		Faults: faults.Config{
			WireLossProb: 0.02,
			IRQLossProb:  0.001,
		},
		Retry: workload.RetryConfig{Timeout: 5 * sim.Millisecond, MaxRetries: 2},
	}
}

func runAudited(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	idle, ok := governor.NewIdlePolicy("menu")
	if !ok {
		t.Fatal("menu idle policy missing")
	}
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model}))
	return s.Run()
}

// TestAuditCleanRun drives a faulty, lossy, retrying run end to end and
// requires a clean report: every conservation law holds and every rule
// family was actually exercised (zero checks would mean the hook wiring
// silently fell off).
func TestAuditCleanRun(t *testing.T) {
	res, err := runAudited(t, auditCfg(7))
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
	if res.Audit == nil {
		t.Fatal("Config.Audit set but Result.Audit is nil")
	}
	if res.Audit.Failed() {
		t.Fatalf("clean run reported violations:\n%s", res.Audit)
	}
	exercised := map[audit.Rule]bool{}
	for _, rs := range res.Audit.Rules {
		exercised[rs.Rule] = rs.Checks > 0
	}
	for _, r := range []audit.Rule{
		audit.RulePacketConservation, audit.RuleCycleAccounting,
		audit.RuleEnergySanity, audit.RuleCStateLegality,
		audit.RulePStateLegality, audit.RuleNAPILegality,
		audit.RuleTimeMonotonic, audit.RuleRequestAccounting,
	} {
		if !exercised[r] {
			t.Errorf("rule %s was never checked", r)
		}
	}
	if res.Reqs.Retransmits == 0 || res.Faults.WireDrops == 0 {
		t.Fatalf("run too tame to exercise the auditor: %+v %+v", res.Reqs, res.Faults)
	}
}

// TestAuditSeedSweep runs a handful of seeds through the audited
// configuration — any conservation bug tends to be seed-dependent.
func TestAuditSeedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		res, err := runAudited(t, auditCfg(seed))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, res.Audit)
		}
	}
}

// TestAuditPhysicsByteIdentical proves the auditor is a pure observer:
// the same seeded run with auditing on and off produces byte-identical
// Results once the report itself is set aside.
func TestAuditPhysicsByteIdentical(t *testing.T) {
	run := func(auditOn bool) []byte {
		cfg := auditCfg(11)
		cfg.Audit = auditOn
		res, err := runAudited(t, cfg)
		if err != nil {
			t.Fatalf("audit=%v: %v", auditOn, err)
		}
		if (res.Audit != nil) != auditOn {
			t.Fatalf("audit=%v but report presence is %v", auditOn, res.Audit != nil)
		}
		res.Audit = nil
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	on, off := run(true), run(false)
	if string(on) != string(off) {
		t.Fatalf("audited physics diverged from unaudited physics:\naudit-on:  %s\naudit-off: %s", on, off)
	}
}

// TestAuditCatchesCorruption skews one packet counter through the test
// hook and requires the auditor to catch it as a structured violation
// naming the rule and the simulated time — the detection-path
// acceptance check.
func TestAuditCatchesCorruption(t *testing.T) {
	cfg := auditCfg(3)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model}))
	s.aud.CorruptPacketCounterForTest(3)
	res, err := s.Run()
	if err == nil {
		t.Fatal("corrupted counter went undetected")
	}
	var v audit.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is not a structured audit.Violation: %v", err)
	}
	if v.Rule != audit.RulePacketConservation {
		t.Fatalf("violation names rule %q, want %q", v.Rule, audit.RulePacketConservation)
	}
	if v.Time != s.Eng.Now() {
		t.Fatalf("violation time %v, want the finalize instant %v", v.Time, s.Eng.Now())
	}
	if res.Audit == nil || !res.Audit.Failed() {
		t.Fatal("Result.Audit does not carry the failure")
	}
}

// TestAuditLedgerHoldsUnderWatchdogAbort arms a tight event watchdog so
// the run aborts mid-burst with requests at every stage of the datapath,
// then requires the RequestAccounting identity — and every other audited
// invariant — to still hold on the partial result. This is the abort
// path that motivated promoting Consistent() to an enforced check: a
// torn ledger on abort would poison every watchdog diagnostic.
func TestAuditLedgerHoldsUnderWatchdogAbort(t *testing.T) {
	for _, maxEvents := range []uint64{500, 5_000, 50_000} {
		cfg := auditCfg(5)
		cfg.MaxEvents = maxEvents
		res, err := runAudited(t, cfg)
		if !errors.Is(err, sim.ErrWatchdog) {
			t.Fatalf("maxEvents=%d: expected a watchdog abort, got %v", maxEvents, err)
		}
		if res.Audit.Failed() {
			t.Fatalf("maxEvents=%d: invariants torn by the abort:\n%s", maxEvents, res.Audit)
		}
		if !res.Reqs.Consistent() {
			t.Fatalf("maxEvents=%d: ledger identity broken: %+v", maxEvents, res.Reqs)
		}
	}
}

// TestWatchdogPinsMultiSegmentTx aborts an audited nginx run (48 Tx
// segments per response) mid-burst and pins the exact watchdog text and a
// digest of the partial Result, audit tallies included. A transmit cut
// mid-burst must leave the same fired count, clock, pending-event count
// and counters however the NIC schedules its Tx completions.
func TestWatchdogPinsMultiSegmentTx(t *testing.T) {
	nginx, _ := workload.ProfileByName("nginx")
	cases := []struct {
		maxEvents uint64
		err       string
		digest    string
	}{
		{5_000, "sim: watchdog tripped: 5000 events dispatched without the run completing (now=1.683ms, 224 events still pending)", "23f106574abfad7c"},
		{50_000, "sim: watchdog tripped: 50000 events dispatched without the run completing (now=10.313ms, 1303 events still pending)", "b5a40a6fe641c4d1"},
	}
	for _, c := range cases {
		cfg := auditCfg(7)
		cfg.Profile = nginx
		cfg.Level = workload.Medium
		cfg.MaxEvents = c.maxEvents
		res, err := runAudited(t, cfg)
		if !errors.Is(err, sim.ErrWatchdog) {
			t.Fatalf("maxEvents=%d: expected a watchdog abort, got %v", c.maxEvents, err)
		}
		if res.Audit.Failed() {
			t.Fatalf("maxEvents=%d: invariants torn by the abort:\n%s", c.maxEvents, res.Audit)
		}
		res.Hist = nil
		b, jerr := json.Marshal(res)
		if jerr != nil {
			t.Fatal(jerr)
		}
		h := fnv.New64a()
		h.Write(b)
		digest := fmt.Sprintf("%016x", h.Sum64())
		if err.Error() != c.err || digest != c.digest {
			t.Errorf("maxEvents=%d:\n got %q digest %s\nwant %q digest %s", c.maxEvents, err, digest, c.err, c.digest)
		}
	}
}
