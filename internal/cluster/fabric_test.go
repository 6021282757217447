package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
)

// The zero-cost gate for the fabric: a cluster whose only fabric-side
// configuration is a link fault scheduled past the run horizon must be
// byte-identical to a cluster with no fabric at all. The fault arms the
// fabric machinery, but a zero-delay lossless traversal is delivered
// inline with no event and no PRNG draw, so the physics cannot tell.
func TestLinkFaultPastHorizonByteIdentical(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	plain, err := New(Config{Nodes: 2, Node: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fabric != nil {
		t.Fatal("fabric armed on a zero-fabric config")
	}
	resA, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	far := cfg
	far.Faults.Partitions = []faults.Partition{{Node: 1, At: 10 * sim.Second}}
	far.Faults.LinkSlows = []faults.LinkSlow{{Node: 0, At: 10 * sim.Second, Duration: sim.Second, Factor: 8}}
	armed, err := New(Config{Nodes: 2, Node: far}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if armed.fabric == nil {
		t.Fatal("scheduled link fault did not arm the fabric")
	}
	resB, err := armed.Run()
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(resA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("fabric armed with past-horizon link faults diverged from the zero-cost front end:\nwith:    %s\nwithout: %s", b, a)
	}
}

// A configured fabric adds real latency: the front-end mean response
// time rises by at least the round trip's base delay, and the audited
// conservation identities still close with copies in transit.
func TestFabricAddsLatency(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	run := func(fab FabricConfig) Result {
		cl, err := New(Config{Nodes: 2, Node: cfg, Fabric: fab}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("audited fabric run: %v", err)
		}
		return res
	}
	free := run(FabricConfig{})
	fab := run(FabricConfig{Base: 20 * sim.Microsecond, Serve: 100 * sim.Nanosecond, Jitter: 2 * sim.Microsecond})
	if gap := fab.Summary.Mean - free.Summary.Mean; gap < 40*sim.Microsecond {
		t.Fatalf("fabric with 20µs legs raised mean latency by only %v", gap)
	}
	if fab.Front.Completed == 0 {
		t.Fatal("no completions across the modeled fabric")
	}
}

// A full (two-way) partition mid-run: copies dispatched into — or in
// flight across — the cut leg are dropped silently and counted, the
// front end honestly carries them as in-flight (it is never told), and
// the conservation identities close. Service through the victim resumes
// after the heal.
func TestFullPartitionConservation(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	cfg.Faults.Partitions = []faults.Partition{
		{Node: 1, At: 110 * sim.Millisecond, Duration: 100 * sim.Millisecond},
	}
	cl, err := New(Config{
		Nodes:  2,
		Node:   cfg,
		Fabric: FabricConfig{Base: 20 * sim.Microsecond},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited full-partition run: %v", err)
	}
	if res.Faults.Partitions != 1 || res.Faults.PartitionHeals != 1 {
		t.Fatalf("fault stats = %+v, want 1 partition + 1 heal", res.Faults)
	}
	if res.Fabric.ReqLost == 0 {
		t.Fatal("no request copies dropped despite a mid-burst two-way cut")
	}
	if res.Front.InFlight < res.Fabric.ReqLost {
		t.Fatalf("front in-flight %d below the %d silently dropped copies — a loss leaked into the ledger",
			res.Front.InFlight, res.Fabric.ReqLost)
	}
	if res.MarkDowns == 0 {
		t.Fatal("prober never marked the cut node down")
	}
	if res.Nodes[1].Reqs.Completed == 0 {
		t.Fatal("victim completed nothing — service never flowed at all")
	}
}

// A one-way cut of the return leg is the orphan factory: requests still
// land and the node does the work, but its responses vanish. The node
// ledgers show strictly more completions than the front end heard, the
// gap is exactly the counted orphans plus hedge-free in-transit copies,
// and the audit stays clean.
func TestOneWayPartitionOrphans(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	cfg.Faults.Partitions = []faults.Partition{
		{Node: 1, Dir: faults.LinkRx, At: 110 * sim.Millisecond, Duration: 100 * sim.Millisecond},
	}
	cl, err := New(Config{
		Nodes:  2,
		Node:   cfg,
		Fabric: FabricConfig{Base: 20 * sim.Microsecond},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited one-way-partition run: %v", err)
	}
	if res.Fabric.RespLost == 0 {
		t.Fatal("no orphaned responses despite a return-leg cut under load")
	}
	if res.Fabric.ReqLost != 0 {
		t.Fatalf("forward leg dropped %d copies, but only the return leg was cut", res.Fabric.ReqLost)
	}
	var nodeDone uint64
	for _, nr := range res.Nodes {
		nodeDone += nr.Reqs.Completed
	}
	if nodeDone <= res.Front.Completed {
		t.Fatalf("node completions %d not above front completions %d — where did the orphans go?",
			nodeDone, res.Front.Completed)
	}
	if nodeDone != res.Front.Completed+res.Fabric.RespLost+res.Fabric.RespInTransit {
		t.Fatalf("orphan arithmetic torn: %d node done != %d front + %d orphaned + %d in transit",
			nodeDone, res.Front.Completed, res.Fabric.RespLost, res.Fabric.RespInTransit)
	}
}

// A lossy link drops copies probabilistically in both directions from
// the fabric's own seeded stream. Probes never fail (loss is invisible
// to the deterministic delay estimate), so traffic keeps flowing into
// the lossy window the whole time — and every drop is still accounted.
func TestLinkLossConservation(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	cfg.Faults.LinkLosses = []faults.LinkLoss{
		{Node: 1, At: 110 * sim.Millisecond, Duration: 100 * sim.Millisecond, Prob: 0.2},
	}
	cl, err := New(Config{Nodes: 2, Node: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited lossy-link run: %v", err)
	}
	if res.Faults.LinkLosses != 1 {
		t.Fatalf("fault stats = %+v, want 1 lossy window", res.Faults)
	}
	if res.Fabric.ReqLost == 0 || res.Fabric.RespLost == 0 {
		t.Fatalf("20%% loss under load dropped req=%d resp=%d — expected both directions hit",
			res.Fabric.ReqLost, res.Fabric.RespLost)
	}
	if res.MarkDowns != 0 {
		t.Fatalf("prober marked down %d times on pure loss — probes must not see probabilistic drops", res.MarkDowns)
	}
	if res.Front.InFlight != res.Fabric.ReqLost+res.Fabric.RespLost {
		t.Fatalf("front in-flight %d != %d dropped copies — with no retries every loss is a stuck request",
			res.Front.InFlight, res.Fabric.ReqLost+res.Fabric.RespLost)
	}
}
