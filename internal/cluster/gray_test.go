package cluster

import (
	"strings"
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
)

// The flap-damping acceptance pin: under a flapping gray link (repeated
// short linkslow windows that a probe timeout turns into mark-downs),
// the exponential hold-off strictly reduces the number of node in/out
// rotation transitions versus the naive prober — and both arms stay
// audit-clean.
//
// The windows sit on the memcached burst grid (bursts cover
// [100k, 100k+40]ms): two flaps inside the first measured burst, two
// inside the second. Probes tick every 5ms and mark down after 2
// consecutive failures, so each 7ms window costs the naive prober one
// full down/up cycle; the damped prober's hold-off swallows the
// second flap of each pair.
func TestFlapDampingReducesTransitions(t *testing.T) {
	run := func(hold sim.Duration) Result {
		cfg := baseNode()
		cfg.Audit = true
		for _, at := range []sim.Duration{105, 120, 205, 220} {
			cfg.Faults.LinkSlows = append(cfg.Faults.LinkSlows, faults.LinkSlow{
				Node: 1, At: at * sim.Millisecond, Duration: 7 * sim.Millisecond, Factor: 4,
			})
		}
		cl, err := New(Config{
			Nodes: 2,
			Node:  cfg,
			Health: HealthConfig{
				ProbeTimeout: 20 * sim.Microsecond,
				FlapHold:     hold,
			},
			Fabric: FabricConfig{Base: 10 * sim.Microsecond},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("audited flap run (hold %v): %v", hold, err)
		}
		return res
	}
	naive := run(0)
	damped := run(25 * sim.Millisecond)
	if naive.Faults.LinkSlows != 4 || damped.Faults.LinkSlows != 4 {
		t.Fatalf("not all slow windows fired: naive %d, damped %d",
			naive.Faults.LinkSlows, damped.Faults.LinkSlows)
	}
	if naive.MarkDowns < 3 {
		t.Fatalf("naive prober cycled only %d times under 4 flap windows — the scenario is not flapping",
			naive.MarkDowns)
	}
	nt := naive.MarkDowns + naive.MarkUps
	dt := damped.MarkDowns + damped.MarkUps
	if dt >= nt {
		t.Fatalf("flap damping did not reduce transitions: naive %d (down %d/up %d), damped %d (down %d/up %d)",
			nt, naive.MarkDowns, naive.MarkUps, dt, damped.MarkDowns, damped.MarkUps)
	}
	if damped.MarkDowns == 0 {
		t.Fatal("damped prober never marked down at all — hold-off cannot have been exercised")
	}
}

// The hedging acceptance pin: with one node's link grossly slowed (and
// the prober blind to it — no probe timeout, so the gray node stays in
// rotation), tail-latency hedging strictly lowers the front-end P99 at
// an equal completed-request count, every duplicate honestly accounted
// and both arms audit-clean.
func TestHedgingLowersTailUnderGrayLink(t *testing.T) {
	run := func(hedge HedgeConfig) Result {
		cfg := baseNode()
		cfg.Audit = true
		// Slow node 1's link ×50 across the first two measured bursts:
		// its round trip becomes ~1ms against a ~20µs nominal one.
		cfg.Faults.LinkSlows = []faults.LinkSlow{
			{Node: 1, At: 95 * sim.Millisecond, Duration: 150 * sim.Millisecond, Factor: 50},
		}
		cl, err := New(Config{
			Nodes:  2,
			Node:   cfg,
			Hedge:  hedge,
			Fabric: FabricConfig{Base: 10 * sim.Microsecond},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("audited gray-link run (hedge=%v): %v", hedge.Enabled, err)
		}
		return res
	}
	plain := run(HedgeConfig{})
	hedged := run(HedgeConfig{Enabled: true, Min: 300 * sim.Microsecond, Max: 300 * sim.Microsecond})

	// Both arms drain fully (the last burst ends before the horizon), so
	// the completed-request counts are comparable — and must be equal.
	if plain.Front.InFlight != 0 || hedged.Front.InFlight != 0 {
		t.Fatalf("arms did not drain: plain in-flight %d, hedged %d",
			plain.Front.InFlight, hedged.Front.InFlight)
	}
	if plain.Front.Completed != hedged.Front.Completed {
		t.Fatalf("completed counts diverged: plain %d, hedged %d",
			plain.Front.Completed, hedged.Front.Completed)
	}
	if hedged.Front.Hedges == 0 {
		t.Fatal("no hedges dispatched against a 1ms round trip and a 300µs hedge delay")
	}
	if hedged.Front.HedgeDupDone == 0 {
		t.Fatal("no losing copies absorbed — every slow primary should eventually land as a duplicate")
	}
	if hedged.Summary.P99 >= plain.Summary.P99 {
		t.Fatalf("hedging did not lower P99: plain %v, hedged %v", plain.Summary.P99, hedged.Summary.P99)
	}
}

// Half-open edge case: the node crashes again while held in probation.
// With flap damping armed, the second crash lands entirely inside the
// first crash's hold-off — the prober absorbs it without a second
// down/up cycle, the fault schedule still injects and heals both
// crashes, and the audit stays clean.
func TestRecrashDuringProbationAbsorbed(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	cfg.Faults.NodeCrashes = []faults.NodeCrash{
		{Node: 1, At: 103 * sim.Millisecond, Duration: 10 * sim.Millisecond},
		{Node: 1, At: 125 * sim.Millisecond, Duration: 10 * sim.Millisecond},
	}
	cl, err := New(Config{
		Nodes:  2,
		Node:   cfg,
		Health: HealthConfig{FlapHold: 25 * sim.Millisecond},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited re-crash run: %v", err)
	}
	if res.Faults.NodeCrashes != 2 || res.Faults.NodeRecoveries != 2 {
		t.Fatalf("fault stats = %+v, want 2 crashes + 2 recoveries", res.Faults)
	}
	if res.MarkDowns != 1 || res.MarkUps != 1 {
		t.Fatalf("probation did not absorb the re-crash: downs=%d ups=%d, want exactly 1/1",
			res.MarkDowns, res.MarkUps)
	}
	if res.Nodes[1].Reqs.Completed == 0 {
		t.Fatal("victim never served again after its hold-off lapsed")
	}
}

// Half-open/hedge edge case: the node is marked down while hedged
// copies are still on it. The in-flight copies fail node-side, each is
// absorbed into the hedge ledger because another copy is believed in
// flight (or the request already settled), and the conservation
// identities close with hedge duplicates, resteers and the crash all
// live at once.
func TestMarkDownDuringActiveHedge(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	// A gray window makes node 1's copies slow enough that hedges are
	// armed and duplicates in flight when the node then hard-crashes.
	cfg.Faults.LinkSlows = []faults.LinkSlow{
		{Node: 1, At: 95 * sim.Millisecond, Duration: 50 * sim.Millisecond, Factor: 50},
	}
	cfg.Faults.NodeCrashes = []faults.NodeCrash{
		{Node: 1, At: 115 * sim.Millisecond, Duration: 30 * sim.Millisecond},
	}
	cl, err := New(Config{
		Nodes:        2,
		RouteRetries: 2,
		Node:         cfg,
		Hedge:        HedgeConfig{Enabled: true, Min: 300 * sim.Microsecond, Max: 300 * sim.Microsecond},
		Fabric:       FabricConfig{Base: 10 * sim.Microsecond},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited hedge-under-crash run: %v", err)
	}
	if res.Front.Hedges == 0 {
		t.Fatal("no hedges in flight despite the gray window")
	}
	if res.Front.HedgeDupFail == 0 {
		t.Fatal("the crash failed no hedged copies — the mark-down/hedge interaction never fired")
	}
	if res.Faults.NodeCrashes != 1 || res.Faults.NodeRecoveries != 1 {
		t.Fatalf("fault stats = %+v, want 1 crash + 1 recovery", res.Faults)
	}
}

// The new configuration surface is validated with descriptive errors.
func TestValidateRejectsLinkAndHedge(t *testing.T) {
	node := baseNode()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative fabric", Config{Nodes: 2, Node: node,
			Fabric: FabricConfig{Base: -1}}, "negative fabric"},
		{"negative probe timeout", Config{Nodes: 2, Node: node,
			Health: HealthConfig{ProbeTimeout: -1}}, "negative health"},
		{"negative flap hold", Config{Nodes: 2, Node: node,
			Health: HealthConfig{FlapHold: -1}}, "negative health"},
		{"hedge quantile", Config{Nodes: 2, Node: node,
			Hedge: HedgeConfig{Enabled: true, Quantile: 1.5}}, "quantile"},
		{"hedge bounds inverted", Config{Nodes: 2, Node: node,
			Hedge: HedgeConfig{Enabled: true, Min: 5 * sim.Millisecond, Max: sim.Millisecond}}, "exceeds"},
	}
	part := node
	part.Faults.Partitions = []faults.Partition{{Node: 7, At: sim.Millisecond}}
	cases = append(cases, struct {
		name string
		cfg  Config
		want string
	}{"partition out of range", Config{Nodes: 2, Node: part}, "partition node 7 out of range"})
	slow := node
	slow.Faults.LinkSlows = []faults.LinkSlow{{Node: 3, At: sim.Millisecond, Duration: sim.Millisecond, Factor: 2}}
	cases = append(cases, struct {
		name string
		cfg  Config
		want string
	}{"linkslow out of range", Config{Nodes: 2, Node: slow}, "linkslow node 3 out of range"})
	loss := node
	loss.Faults.LinkLosses = []faults.LinkLoss{{Node: 9, At: sim.Millisecond, Duration: sim.Millisecond, Prob: 0.5}}
	cases = append(cases, struct {
		name string
		cfg  Config
		want string
	}{"linkloss out of range", Config{Nodes: 2, Node: loss}, "linkloss node 9 out of range"})
	for _, tc := range cases {
		if _, err := New(tc.cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
