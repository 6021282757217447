package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
)

// baseNode is a small, fast node configuration shared by the tests.
func baseNode() server.Config {
	return server.Config{
		Seed:     7,
		RPS:      120_000,
		Warmup:   50 * sim.Millisecond,
		Duration: 300 * sim.Millisecond,
	}
}

// A 1-node cluster with no node faults and no retries must be
// byte-identical to a plain server.Run of the same configuration — the
// acceptance gate for the whole refactor: the router, health prober and
// shared-engine construction cost nothing physically.
func TestSingleNodeClusterByteIdentical(t *testing.T) {
	cfg := baseNode()
	cfg.Audit = true
	plain, err := server.New(cfg, nil).Run()
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cl, err := New(Config{Nodes: 1, Node: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cl.Run()
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(cres.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("1-node cluster diverged from plain server.Run:\ncluster: %s\nplain:   %s", got, want)
	}
	if cres.Front.Issued != plain.Reqs.Issued {
		t.Fatalf("front issued %d, node issued %d", cres.Front.Issued, plain.Reqs.Issued)
	}
	if cres.Front.Resteers != 0 || cres.Front.Unroutable != 0 || cres.Front.Failed != plain.Reqs.TimedOut+plain.Reqs.Lost+plain.Reqs.Shed {
		t.Fatalf("front ledger has phantom failure traffic: %+v", cres.Front)
	}
	if !cres.Front.Consistent() {
		t.Fatalf("front ledger inconsistent: %+v", cres.Front)
	}
}

// The acceptance pin for the cluster ledger: under a node crash with
// retries on, the auditor's cluster conservation rule must hold — every
// request issued by the front end is completed, failed, or refused,
// resteers included, with nothing lost in the hand-off.
func TestClusterConservationUnderNodeCrash(t *testing.T) {
	cfg := baseNode()
	cfg.Duration = 400 * sim.Millisecond
	cfg.Audit = true
	cfg.Faults.NodeCrashes = []faults.NodeCrash{
		{Node: 1, At: 100 * sim.Millisecond, Duration: 150 * sim.Millisecond},
	}
	cl, err := New(Config{Nodes: 3, RouteRetries: 2, Node: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited cluster run under nodecrash: %v", err)
	}
	if res.Faults.NodeCrashes != 1 || res.Faults.NodeRecoveries != 1 {
		t.Fatalf("fault stats = %+v, want 1 crash + 1 recovery", res.Faults)
	}
	if res.MarkDowns == 0 || res.MarkUps == 0 {
		t.Fatalf("health prober never cycled: downs=%d ups=%d", res.MarkDowns, res.MarkUps)
	}
	if res.Front.Resteers == 0 {
		t.Fatal("no resteers despite a mid-run node crash with retry budget")
	}
	if !res.Front.Consistent() {
		t.Fatalf("front ledger inconsistent: %+v", res.Front)
	}
	if cl.OfflineNodes() != 0 {
		t.Fatalf("%d nodes still offline after timed recovery", cl.OfflineNodes())
	}
	// The crashed node's traffic must have re-steered to survivors: both
	// survivors completed more than the victim.
	if v := res.Nodes[1].Reqs.Completed; v >= res.Nodes[0].Reqs.Completed || v >= res.Nodes[2].Reqs.Completed {
		t.Fatalf("victim completed %d, survivors %d/%d — no traffic moved",
			v, res.Nodes[0].Reqs.Completed, res.Nodes[2].Reqs.Completed)
	}
	if res.Audit == nil {
		t.Fatal("audited run returned no report")
	}
}

// Losing every node is a total fleet outage: fresh requests are refused
// explicitly (Unroutable), the conservation identity still holds, and
// service resumes after recovery.
func TestTotalFleetOutage(t *testing.T) {
	cfg := baseNode()
	cfg.Duration = 400 * sim.Millisecond
	cfg.Audit = true
	cfg.Faults.NodeCrashes = []faults.NodeCrash{
		{Node: 0, At: 100 * sim.Millisecond, Duration: 150 * sim.Millisecond},
		{Node: 1, At: 100 * sim.Millisecond, Duration: 150 * sim.Millisecond},
	}
	cl, err := New(Config{Nodes: 2, RouteRetries: 1, Node: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited total-outage run: %v", err)
	}
	if res.Front.Unroutable == 0 {
		t.Fatal("total outage produced no unroutable requests")
	}
	if !res.Front.Consistent() {
		t.Fatalf("front ledger inconsistent: %+v", res.Front)
	}
	if res.Front.Completed == 0 {
		t.Fatal("no request completed — service never resumed after recovery")
	}
}

// A nodeslow fault clamps the victim's cores: its mean response time
// degrades relative to an untouched peer, and the clamp lifts on
// schedule without breaking any invariant.
func TestNodeSlowDegradesVictim(t *testing.T) {
	cfg := baseNode()
	cfg.Duration = 400 * sim.Millisecond
	cfg.Audit = true
	cfg.Faults.NodeSlows = []faults.NodeSlow{
		{Node: 1, At: 100 * sim.Millisecond, Duration: 200 * sim.Millisecond, Factor: 2.5},
	}
	cl, err := New(Config{Nodes: 2, Node: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatalf("audited nodeslow run: %v", err)
	}
	if res.Faults.NodeSlows != 1 {
		t.Fatalf("fault stats = %+v, want 1 nodeslow", res.Faults)
	}
	if slow, fast := res.Nodes[1].Summary.Mean, res.Nodes[0].Summary.Mean; slow <= fast {
		t.Fatalf("slowed node mean %v not worse than peer %v", slow, fast)
	}
}

// The router's pick covers all four policies deterministically.
func TestRouterPick(t *testing.T) {
	newFleet := func(route string, weights []float64) *Cluster {
		c, err := New(Config{Nodes: 4, Route: route, Weights: weights, Node: baseNode()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("rr", func(t *testing.T) {
		c := newFleet("rr", nil)
		for i, want := range []int{0, 1, 2, 3, 0, 1} {
			if got := c.router.pick(0, -1); got != want {
				t.Fatalf("pick %d = node %d, want %d", i, got, want)
			}
		}
		// Excluding the next-in-line node skips it without consuming its
		// turn order.
		if got := c.router.pick(0, 2); got != 3 {
			t.Fatalf("pick excluding 2 = %d, want 3", got)
		}
	})

	t.Run("least", func(t *testing.T) {
		c := newFleet("least", nil)
		c.Nodes[0].live, c.Nodes[1].live, c.Nodes[2].live, c.Nodes[3].live = 5, 2, 2, 9
		if got := c.router.pick(0, -1); got != 1 {
			t.Fatalf("least picked %d, want 1 (lowest index among ties)", got)
		}
		if got := c.router.pick(0, 1); got != 2 {
			t.Fatalf("least excluding 1 picked %d, want 2", got)
		}
	})

	t.Run("weighted", func(t *testing.T) {
		c := newFleet("weighted", []float64{3, 1, 1, 1})
		counts := make([]int, 4)
		for i := 0; i < 12; i++ {
			counts[c.router.pick(0, -1)]++
		}
		if counts[0] != 6 || counts[1] != 2 || counts[2] != 2 || counts[3] != 2 {
			t.Fatalf("weighted 3:1:1:1 over 12 picks = %v", counts)
		}
	})

	t.Run("flow", func(t *testing.T) {
		c := newFleet("flow", nil)
		if got := c.router.pick(5, -1); got != 1 {
			t.Fatalf("flow 5 homed to %d, want 1", got)
		}
		c.health.phase[1] = phaseDown
		if got := c.router.pick(5, -1); got != 2 {
			t.Fatalf("flow 5 with home down failed over to %d, want 2", got)
		}
	})

	t.Run("outage", func(t *testing.T) {
		c := newFleet("rr", nil)
		for i := range c.Nodes {
			c.health.phase[i] = phaseDown
		}
		if got := c.router.pick(0, -1); got != -1 {
			t.Fatalf("all-down pick = %d, want -1", got)
		}
		// With only the excluded node routable, retrying it beats failing.
		c.health.phase[2] = phaseUp
		if got := c.router.pick(0, 2); got != 2 {
			t.Fatalf("sole-survivor pick = %d, want the excluded node 2", got)
		}
	})
}

// The health model walks Up → Down (after K failed probes) → HalfOpen
// (on recovery) → Up (after the success quota) — and a half-open
// failure reopens the circuit immediately.
func TestHealthTransitions(t *testing.T) {
	cfg := Config{Nodes: 2, Health: HealthConfig{MarkDownAfter: 2, HalfOpenSuccess: 2}, Node: baseNode()}
	c, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := c.health
	c.Nodes[1].Srv.CrashNode()
	h.probe()
	if !h.routable(1) {
		t.Fatal("one failed probe already marked the node down (K=2)")
	}
	h.probe()
	if h.routable(1) || h.markDowns != 1 {
		t.Fatalf("two failed probes: routable=%v markDowns=%d", h.routable(1), h.markDowns)
	}
	c.Nodes[1].Srv.RecoverNode()
	h.probe()
	if !h.routable(1) || h.phase[1] != phaseHalfOpen {
		t.Fatalf("recovered node not half-open: phase=%d", h.phase[1])
	}
	// Trial traffic fails: straight back down, no probe needed.
	h.observeFailure(1)
	if h.routable(1) || h.markDowns != 2 {
		t.Fatalf("half-open failure did not reopen: routable=%v markDowns=%d", h.routable(1), h.markDowns)
	}
	h.probe()
	if h.phase[1] != phaseHalfOpen {
		t.Fatal("healthy probe did not re-admit trial traffic")
	}
	h.observeSuccess(1)
	if h.phase[1] != phaseHalfOpen {
		t.Fatal("one success closed the circuit (quota is 2)")
	}
	h.observeSuccess(1)
	if h.phase[1] != phaseUp || h.markUps != 1 {
		t.Fatalf("success quota met but phase=%d markUps=%d", h.phase[1], h.markUps)
	}
}

// The fleet power cap holds average fleet power near its budget and
// records its interventions.
func TestFleetPowerCap(t *testing.T) {
	cfg := baseNode()
	run := func(capW float64) Result {
		cl, err := New(Config{Nodes: 2, FleetPowerCapW: capW, Node: cfg}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	capped := run(free.AvgPowerW * 0.7)
	if capped.CapInterventions == 0 {
		t.Fatal("cap below free-running power never intervened")
	}
	if capped.AvgPowerW >= free.AvgPowerW {
		t.Fatalf("capped power %.1fW not below free-running %.1fW", capped.AvgPowerW, free.AvgPowerW)
	}
}

func TestValidateRejects(t *testing.T) {
	node := baseNode()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero nodes", Config{Nodes: 0, Node: node}, "at least 1 node"},
		{"bad route", Config{Nodes: 2, Route: "bogus", Node: node}, "unknown route"},
		{"weight count", Config{Nodes: 2, Weights: []float64{1}, Node: node}, "1 weights for 2 nodes"},
		{"weight sign", Config{Nodes: 2, Weights: []float64{1, -1}, Node: node}, "non-positive weight"},
		{"negative retries", Config{Nodes: 2, RouteRetries: -1, Node: node}, "retry budget"},
		{"negative cap", Config{Nodes: 2, FleetPowerCapW: -5, Node: node}, "power cap"},
	}
	crash := node
	crash.Faults.NodeCrashes = []faults.NodeCrash{{Node: 5, At: sim.Millisecond}}
	cases = append(cases, struct {
		name string
		cfg  Config
		want string
	}{"crash out of range", Config{Nodes: 2, Node: crash}, "out of range"})
	for _, tc := range cases {
		if _, err := New(tc.cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
