package fuzzer

import (
	"testing"
	"testing/quick"

	"nmapsim/internal/cluster"
	"nmapsim/internal/sim"
)

// SeedCorpus are the hand-picked regression corners checked into
// testdata/fuzz/FuzzAuditInvariants and replayed by every plain
// `go test` run: a retry storm over a lossy wire, a unit socket queue,
// thermal throttling over CC6 sleeps, and lumpy RSS steering onto three
// flows.
var SeedCorpus = map[string][NumWords]uint64{
	"retry-storm":  {7, 3, 3, 0, 2, 1, 0, 0, 80, 1 | 4<<8, 15 << 8, 0},
	"sockq-one":    {11, 3, 7, 0, 2, 0, 1, 0, 20, 0, 15 << 8, 0},
	"throttle-cc6": {13, 3, 3, 2, 1, 0, 0, 0, 1<<16 | 9<<24, 0, 15 << 8, 0},
	"lumpy-rss":    {17, 3, 7, 0, 2, 0, 0, 18, 0, 0, 15 << 8, 0},
	// A timed core crash landing while the c6only policy has cores deep
	// in CC6 at low load (offline/online across a sleep state), and a
	// stuck Rx ring under the retry storm (stall-induced drops recovered
	// by retransmission).
	"corecrash-cc6":          {19, 3, 7, 2, 0, 0, 0, 0, 0, 0, 15 << 8, 8<<8 | 1<<16 | 2<<24},
	"queuestall-retry-storm": {23, 3, 3, 0, 2, 1, 6<<8 | 2<<16 | 3<<24, 0, 80, 1 | 4<<8, 15 << 8, 0},
	// Fleet corners: a hedged 2-node front end whose gray link (x50
	// slow-down) overlaps a client retry storm over a lossy wire, and a
	// 3-node fleet with a flap-damped prober riding out a one-way
	// return-leg partition plus a lossy window on another node.
	"hedge-under-retry-storm": {29, 3, 3 | 5<<8, 1<<8 | 1<<16, 1 << 8, 1, 0,
		12<<8 | 4<<16 | 1<<24 | 1<<32, 80, 1 | 4<<8, 15<<8 | 1<<16 | 1<<24, 0},
	"one-way-cut-flap-damped": {31, 3, 7 | 7<<8, 2 << 16, 2 | 2<<16, 12<<16 | 1<<24 | 6<<32 | 1<<40, 0,
		0, 0, 8<<16 | 2<<24 | 1<<32 | 2<<40, 30<<8 | 1<<16, 0},
}

// FuzzAuditInvariants decodes twelve entropy words into a valid server
// configuration, runs it under the invariant auditor, and fails on any
// violation. Watchdog aborts (some specs arm MaxEvents on purpose) are
// expected outcomes, not failures.
func FuzzAuditInvariants(f *testing.F) {
	for _, w := range SeedCorpus {
		f.Add(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8], w[9], w[10], w[11])
	}
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11 uint64) {
		sp := FromWords([NumWords]uint64{w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11})
		if out := Check(sp); out.Failed() {
			t.Fatalf("invariant violation: %v\nreproducer:\n%s", out.Err, MarshalSpec(sp))
		}
	})
}

// TestSeedCorpusClean replays the named corners explicitly so a plain
// test run reports them by name, and asserts each scenario actually
// exercises what it claims to.
func TestSeedCorpusClean(t *testing.T) {
	for name, w := range SeedCorpus {
		t.Run(name, func(t *testing.T) {
			sp := FromWords(w)
			out := Check(sp)
			if out.Failed() {
				t.Fatalf("%v\nreproducer:\n%s", out.Err, MarshalSpec(sp))
			}
			if out.Report == nil {
				t.Fatal("no audit report")
			}
		})
	}
	if sp := FromWords(SeedCorpus["retry-storm"]); sp.WireLossPM == 0 || sp.RTOMs == 0 {
		t.Fatalf("retry-storm corner lost its knobs: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["sockq-one"]); sp.SockQCap != 1 {
		t.Fatalf("sockq-one corner lost its knob: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["throttle-cc6"]); sp.ThrottleRate == 0 || sp.Idle != "c6only" {
		t.Fatalf("throttle-cc6 corner lost its knobs: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["lumpy-rss"]); !sp.LumpyRSS || sp.Flows != 3 {
		t.Fatalf("lumpy-rss corner lost its knobs: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["corecrash-cc6"]); sp.CoreCrashAtMs == 0 ||
		sp.CoreCrashDurMs == 0 || sp.Idle != "c6only" {
		t.Fatalf("corecrash-cc6 corner lost its knobs: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["queuestall-retry-storm"]); sp.QueueStallAtMs == 0 ||
		sp.WireLossPM == 0 || sp.RTOMs == 0 {
		t.Fatalf("queuestall-retry-storm corner lost its knobs: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["hedge-under-retry-storm"]); sp.Nodes != 2 || !sp.Hedge ||
		sp.LinkSlowAtMs == 0 || sp.LinkSlowFactor != 50 || sp.WireLossPM == 0 || sp.RTOMs == 0 ||
		sp.FabricBaseUs == 0 {
		t.Fatalf("hedge-under-retry-storm corner lost its knobs: %+v", sp)
	}
	if sp := FromWords(SeedCorpus["one-way-cut-flap-damped"]); sp.Nodes != 3 || sp.FlapHoldMs == 0 ||
		sp.PartitionAtMs == 0 || sp.PartitionDir != 2 || sp.LinkLossAtMs == 0 ||
		sp.RouteRetries == 0 {
		t.Fatalf("one-way-cut-flap-damped corner lost its knobs: %+v", sp)
	}
}

// Property: the word decoder is total — any entropy maps to a Spec whose
// lowered configuration passes validation, including the cluster
// assembly for fleet draws.
func TestFromWordsAlwaysValid(t *testing.T) {
	fn := func(w [NumWords]uint64) bool {
		sp := FromWords(w)
		es, err := sp.Experiment()
		if err != nil {
			return false
		}
		if es.Cfg.Validate() != nil {
			return false
		}
		if (sp.Nodes >= 2) != (es.Fleet != nil) {
			return false
		}
		if es.Fleet != nil {
			topo := *es.Fleet
			topo.Node = es.Cfg
			cl, err := cluster.New(topo, nil)
			return err == nil && cl != nil
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Shrink collapses an irrelevant fleet in one move: when the failure
// does not depend on the cluster, the minimal reproducer is single-node
// with no dangling cluster knobs.
func TestShrinkDropsIrrelevantFleet(t *testing.T) {
	sp := FromWords(SeedCorpus["hedge-under-retry-storm"])
	failed := func(s Spec) bool { return s.WireLossPM > 0 } // only the lossy wire matters
	min := Shrink(sp, failed, 0)
	if min.WireLossPM == 0 {
		t.Fatal("shrink dropped the knob the failure depends on")
	}
	if min.Nodes != 0 || min.Hedge || min.Route != "" || min.LinkSlowAtMs != 0 ||
		min.FabricBaseUs != 0 || min.FabricServeNs != 0 {
		t.Fatalf("shrink left fleet knobs active: %+v", min)
	}
}

// And the converse: when the failure needs the fleet, the cluster
// collapse is rejected but the irrelevant fleet faults still go.
func TestShrinkKeepsNeededFleet(t *testing.T) {
	sp := FromWords(SeedCorpus["one-way-cut-flap-damped"])
	failed := func(s Spec) bool { return s.Nodes >= 2 && s.PartitionAtMs > 0 }
	min := Shrink(sp, failed, 0)
	if min.Nodes < 2 || min.PartitionAtMs == 0 {
		t.Fatal("shrink dropped the fleet the failure depends on")
	}
	if min.LinkLossAtMs != 0 || min.FlapHoldMs != 0 || min.RouteRetries != 0 {
		t.Fatalf("shrink left irrelevant fleet knobs active: %+v", min)
	}
}

// A random sample of generated specs runs clean end to end (the cheap,
// always-on cousin of the -fuzz target).
func TestRandomSpecsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs; skipped in -short")
	}
	rng := sim.NewRNG(99)
	for i := 0; i < 12; i++ {
		sp := Generate(rng)
		if out := Check(sp); out.Failed() {
			t.Fatalf("spec %d: %v\nreproducer:\n%s", i, out.Err, MarshalSpec(sp))
		}
	}
}

// Shrink must strip every knob that does not matter for the failure and
// stop at a fixpoint, under a synthetic predicate.
func TestShrinkMinimises(t *testing.T) {
	sp := FromWords(SeedCorpus["retry-storm"])
	sp.ThrottleRate, sp.ThrottlePS = 1000, 3
	sp.LumpyRSS = true
	// Synthetic failure: only the unit socket queue matters.
	sp.SockQCap = 1
	failed := func(s Spec) bool { return s.SockQCap == 1 }
	min := Shrink(sp, failed, 0)
	if min.SockQCap != 1 {
		t.Fatal("shrink dropped the knob the failure depends on")
	}
	if min.WireLossPM != 0 || min.ThrottleRate != 0 || min.RTOMs != 0 || min.LumpyRSS {
		t.Fatalf("shrink left irrelevant knobs active: %+v", min)
	}
	if min.Policy != "performance" || min.Level != "low" {
		t.Fatalf("shrink did not simplify policy/level: %+v", min)
	}
}

// Reproducers round-trip through JSON.
func TestSpecRoundTrip(t *testing.T) {
	sp := FromWords(SeedCorpus["throttle-cc6"])
	back, err := UnmarshalSpec(MarshalSpec(sp))
	if err != nil {
		t.Fatal(err)
	}
	if back != sp {
		t.Fatalf("round trip diverged:\n%+v\n%+v", back, sp)
	}
}
