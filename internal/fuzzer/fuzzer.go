// Package fuzzer generates random-but-valid server and fleet
// configurations, runs them under the invariant auditor (package audit)
// as cells of the experiment harness, and shrinks any violating
// configuration to a minimal reproducer. It backs both the
// native `go test -fuzz=FuzzAuditInvariants` target and the standalone
// cmd/nmapfuzz driver.
//
// A configuration is drawn from a fixed array of untyped words so that
// the native fuzzer can mutate the raw entropy while the mapping stays
// total: every word vector maps to a configuration that passes
// server.Config.Validate, and every violation found is a real invariant
// breach, never a rejected input.
package fuzzer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"nmapsim/internal/audit"
	"nmapsim/internal/cluster"
	"nmapsim/internal/cpu"
	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/governor"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// NumWords is the size of the raw entropy vector one configuration is
// decoded from.
const NumWords = 12

// Policies are the power-management policies the fuzzer cycles through —
// the full harness catalogue.
var Policies = experiments.PolicyNames

// Spec is one fuzzed configuration, serialisable as a JSON reproducer.
// Every field is already clamped to a valid range; Experiment() performs
// the residual model-dependent clamping (throttle P-state, userspace
// P-state).
type Spec struct {
	Seed    uint64 `json:"seed"`
	Model   string `json:"model"`
	Profile string `json:"profile"`
	Policy  string `json:"policy"`
	Idle    string `json:"idle"`
	Level   string `json:"level"`

	WarmupMs   int `json:"warmup_ms"`
	DurationMs int `json:"duration_ms"`

	NICRing  int  `json:"nic_ring,omitempty"`
	SockQCap int  `json:"sockq_cap,omitempty"`
	Flows    int  `json:"flows,omitempty"`
	LumpyRSS bool `json:"lumpy_rss,omitempty"`
	ITRUs    int  `json:"itr_us,omitempty"`

	// Fault injection, in coarse integer units so reproducers stay
	// readable: losses in per-mille, throttle rate in events/second.
	WireLossPM   int `json:"wire_loss_pm,omitempty"`
	IRQLossPM    int `json:"irq_loss_pm,omitempty"`
	ThrottleRate int `json:"throttle_rate,omitempty"`
	ThrottlePS   int `json:"throttle_pstate,omitempty"`

	// Client retry loop; RTOMs == 0 disables it.
	RTOMs      int `json:"rto_ms,omitempty"`
	MaxRetries int `json:"max_retries,omitempty"`

	// Scheduled hard faults. CoreCrashAtMs == 0 disables the crash;
	// CoreCrashDurMs == 0 makes it permanent. QueueStallAtMs == 0
	// disables the stall (a stall is always bounded).
	CoreCrashCore   int `json:"corecrash_core,omitempty"`
	CoreCrashAtMs   int `json:"corecrash_at_ms,omitempty"`
	CoreCrashDurMs  int `json:"corecrash_dur_ms,omitempty"`
	QueueStallQ     int `json:"queuestall_q,omitempty"`
	QueueStallAtMs  int `json:"queuestall_at_ms,omitempty"`
	QueueStallDurMs int `json:"queuestall_dur_ms,omitempty"`

	// ShedSLOx10 is server.Config.ShedSLOMultiple x 10 (0 = admission
	// control off), kept integral so Spec stays comparable.
	ShedSLOx10 int `json:"shed_slo_x10,omitempty"`

	// MaxEvents arms the engine watchdog so the fuzzer also explores
	// abort paths; a watchdog abort is an expected outcome, not a
	// failure.
	MaxEvents uint64 `json:"max_events,omitempty"`

	// Fleet shape. Nodes == 0 keeps the single-node path; Nodes >= 2
	// routes the spec through the cluster front end, and every field
	// below is meaningful only then (the decoder keeps them zero
	// otherwise, so single-node reproducers stay minimal).
	Nodes        int    `json:"nodes,omitempty"`
	Route        string `json:"route,omitempty"`
	RouteRetries int    `json:"route_retries,omitempty"`
	Hedge        bool   `json:"hedge,omitempty"`
	FlapHoldMs   int    `json:"flap_hold_ms,omitempty"`

	// Interconnect model (0/0 = free fabric, faults still route through
	// the zero-delay fast path).
	FabricBaseUs  int `json:"fabric_base_us,omitempty"`
	FabricServeNs int `json:"fabric_serve_ns,omitempty"`

	// Scheduled fleet faults, one per family. An AtMs of 0 disables the
	// family. PartitionDurMs == 0 leaves the cut permanent;
	// PartitionDir is a faults.LinkDir (0 both, 1 tx, 2 rx).
	PartitionNode  int `json:"partition_node,omitempty"`
	PartitionDir   int `json:"partition_dir,omitempty"`
	PartitionAtMs  int `json:"partition_at_ms,omitempty"`
	PartitionDurMs int `json:"partition_dur_ms,omitempty"`
	LinkSlowNode   int `json:"linkslow_node,omitempty"`
	LinkSlowAtMs   int `json:"linkslow_at_ms,omitempty"`
	LinkSlowDurMs  int `json:"linkslow_dur_ms,omitempty"`
	LinkSlowFactor int `json:"linkslow_factor,omitempty"`
	LinkLossNode   int `json:"linkloss_node,omitempty"`
	LinkLossAtMs   int `json:"linkloss_at_ms,omitempty"`
	LinkLossDurMs  int `json:"linkloss_dur_ms,omitempty"`
	LinkLossPM     int `json:"linkloss_pm,omitempty"`
	NodeCrashNode  int `json:"nodecrash_node,omitempty"`
	NodeCrashAtMs  int `json:"nodecrash_at_ms,omitempty"`
	NodeCrashDurMs int `json:"nodecrash_dur_ms,omitempty"`
}

// levels and discrete knob menus the word decoder picks from. Small
// rings, unit socket queues and few flows are deliberately over-weighted
// — overflow and imbalance corners are where conservation bugs live.
var (
	rings   = []int{0, 16, 64, 256}
	sockqs  = []int{0, 1, 8, 64}
	flowses = []int{0, 1, 3, 8}
	itrs    = []int{0, 2, 10, 50}
	rates   = []int{0, 200, 1000}
	events  = []uint64{0, 0, 200_000, 2_000_000}
	// crashDurs over-weights the permanent crash (0) — one-way failure
	// domains are the harsher corner. sheds over-weights "off" so most
	// runs still exercise the unshedded datapath.
	crashDurs = []int{0, 0, 5, 10}
	sheds     = []int{0, 0, 10, 40}
	// Fleet menus. nodeCounts over-weights the single-node path (0) so
	// most entropy still probes the core datapath; clusterRoutes cycles
	// the routing policies; flapHolds over-weights "naive" so damping is
	// the exercised variant, not the default; slowFactors reaches the
	// gray extreme (50x) where hedging decides outcomes.
	nodeCounts    = []int{0, 0, 0, 0, 0, 2, 2, 3}
	clusterRoutes = cluster.RoutePolicies
	flapHolds     = []int{0, 0, 5, 10}
	fabricBases   = []int{0, 2, 10}
	fabricServes  = []int{0, 200, 1000}
	slowFactors   = []int{2, 8, 50}
	lossPMs       = []int{50, 200}
)

// FromWords decodes a raw word vector into a valid Spec. The mapping is
// total: any entropy yields a configuration that validates.
func FromWords(w [NumWords]uint64) Spec {
	models := cpu.Models
	profiles := workload.Profiles()
	sp := Spec{
		Seed:    w[0],
		Model:   models[w[1]%uint64(len(models))].Name,
		Profile: profiles[w[1]>>8%uint64(len(profiles))].Name,
		Policy:  Policies[w[2]%uint64(len(Policies))],
		Idle:    governor.IdlePolicies[w[3]%uint64(len(governor.IdlePolicies))],
		Level:   workload.Levels[w[4]%3].String(),

		WarmupMs:   int(w[10] % 11),      // 0–10ms
		DurationMs: 5 + int(w[10]>>8%36), // 5–40ms

		NICRing:  rings[w[5]%uint64(len(rings))],
		SockQCap: sockqs[w[6]%uint64(len(sockqs))],
		Flows:    flowses[w[7]%uint64(len(flowses))],
		LumpyRSS: w[7]>>4&1 == 1,
		ITRUs:    itrs[w[5]>>8%uint64(len(itrs))],

		WireLossPM:   int(w[8] % 81),      // 0–8%
		IRQLossPM:    int(w[8] >> 8 % 21), // 0–2%
		ThrottleRate: rates[w[8]>>16%uint64(len(rates))],
		ThrottlePS:   int(w[8] >> 24 % 16), // clamped to the model later

		RTOMs:      int(w[9] % 8), // 0 disables retries
		MaxRetries: int(w[9] >> 8 % 5),
		ShedSLOx10: sheds[w[9]>>16%uint64(len(sheds))],

		MaxEvents: events[w[11]%uint64(len(events))],
	}
	// Spare bits of w[11] and w[6] carry the scheduled hard faults; the
	// inactive shapes keep all their fields zero so reproducers stay
	// minimal.
	if at := int(w[11] >> 8 % 24); at > 0 {
		sp.CoreCrashAtMs = at
		sp.CoreCrashCore = int(w[11] >> 16 % 8)
		sp.CoreCrashDurMs = crashDurs[w[11]>>24%uint64(len(crashDurs))]
	}
	if at := int(w[6] >> 8 % 24); at > 0 {
		sp.QueueStallAtMs = at
		sp.QueueStallQ = int(w[6] >> 16 % 8)
		sp.QueueStallDurMs = 1 + int(w[6]>>24%10)
	}
	// Spare high bits fan the spec out into a fleet. Everything below is
	// gated on a multi-node draw so single-node specs carry no dormant
	// cluster knobs, and the watchdog stays off for fleets (the abort
	// paths are explored by the single-node specs).
	sp.Nodes = nodeCounts[w[2]>>8%uint64(len(nodeCounts))]
	if sp.Nodes >= 2 {
		n := uint64(sp.Nodes)
		sp.Route = clusterRoutes[w[3]>>8%uint64(len(clusterRoutes))]
		sp.RouteRetries = int(w[3] >> 16 % 3)
		sp.Hedge = w[4]>>8&1 == 1
		sp.FlapHoldMs = flapHolds[w[4]>>16%uint64(len(flapHolds))]
		sp.FabricBaseUs = fabricBases[w[10]>>16%uint64(len(fabricBases))]
		sp.FabricServeNs = fabricServes[w[10]>>24%uint64(len(fabricServes))]
		sp.MaxEvents = 0
		if at := int(w[5] >> 16 % 24); at > 0 {
			sp.PartitionAtMs = at
			sp.PartitionDir = int(w[5] >> 24 % 3)
			sp.PartitionDurMs = int(w[5] >> 32 % 10)
			sp.PartitionNode = int(w[5] >> 40 % n)
		}
		if at := int(w[7] >> 8 % 24); at > 0 {
			sp.LinkSlowAtMs = at
			sp.LinkSlowDurMs = 1 + int(w[7]>>16%10)
			sp.LinkSlowFactor = slowFactors[w[7]>>24%uint64(len(slowFactors))]
			sp.LinkSlowNode = int(w[7] >> 32 % n)
		}
		if at := int(w[9] >> 16 % 24); at > 0 {
			sp.LinkLossAtMs = at
			sp.LinkLossDurMs = 1 + int(w[9]>>24%10)
			sp.LinkLossPM = lossPMs[w[9]>>32&1]
			sp.LinkLossNode = int(w[9] >> 40 % n)
		}
		if at := int(w[11] >> 32 % 24); at > 0 {
			sp.NodeCrashAtMs = at
			sp.NodeCrashDurMs = crashDurs[w[11]>>40%uint64(len(crashDurs))]
			sp.NodeCrashNode = int(w[11] >> 48 % n)
		}
	}
	return sp
}

// Generate draws one Spec from a seeded stream.
func Generate(rng *sim.RNG) Spec {
	var w [NumWords]uint64
	for i := range w {
		w[i] = rng.Uint64()
	}
	return FromWords(w)
}

func findModel(name string) *cpu.Model {
	for _, m := range cpu.Models {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func findProfile(name string) *workload.Profile {
	for _, p := range workload.Profiles() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func findLevel(name string) (workload.Level, bool) {
	for _, l := range workload.Levels {
		if l.String() == name {
			return l, true
		}
	}
	return 0, false
}

// Experiment lowers the Spec to a runnable experiments.Spec with the
// auditor enabled: a fleet spec (Nodes >= 2) to one whose Fleet carries
// the front end and whose node template schedules the link and node
// faults. Unknown names (possible in a hand-edited reproducer) surface
// as errors.
func (sp Spec) Experiment() (experiments.Spec, error) {
	m := findModel(sp.Model)
	if sp.Model != "" && m == nil {
		return experiments.Spec{}, fmt.Errorf("fuzzer: unknown model %q", sp.Model)
	}
	p := findProfile(sp.Profile)
	if sp.Profile != "" && p == nil {
		return experiments.Spec{}, fmt.Errorf("fuzzer: unknown profile %q", sp.Profile)
	}
	lvl, ok := findLevel(sp.Level)
	if sp.Level != "" && !ok {
		return experiments.Spec{}, fmt.Errorf("fuzzer: unknown level %q", sp.Level)
	}
	cfg := serverConfig(sp, m, p, lvl)
	es := experiments.Spec{Policy: sp.Policy, Idle: sp.Idle, Cfg: cfg}
	if sp.Nodes >= 2 {
		es.Fleet = sp.fleet(&es.Cfg.Faults)
	}
	if sp.Policy == "userspace" {
		mm := m
		if mm == nil {
			mm = cpu.XeonGold6134
		}
		es.UserspaceP = int(sp.Seed % uint64(mm.MaxP()+1))
	}
	return es, nil
}

func serverConfig(sp Spec, m *cpu.Model, p *workload.Profile, lvl workload.Level) server.Config {
	mm := m
	if mm == nil {
		mm = cpu.XeonGold6134
	}
	cfg := server.Config{
		Model:    m,
		Seed:     sp.Seed,
		Profile:  p,
		Level:    lvl,
		Warmup:   sim.Duration(sp.WarmupMs) * sim.Millisecond,
		Duration: sim.Duration(sp.DurationMs) * sim.Millisecond,
		NICRing:  sp.NICRing,
		SockQCap: sp.SockQCap,
		Flows:    sp.Flows,
		LumpyRSS: sp.LumpyRSS,
		ITR:      sim.Duration(sp.ITRUs) * sim.Microsecond,
		Audit:    true,
	}
	if sp.WarmupMs == 0 {
		cfg.Warmup = -1 // negative means "really zero" in the config idiom
	}
	cfg.Faults = faults.Config{
		WireLossProb: float64(sp.WireLossPM) / 1000,
		IRQLossProb:  float64(sp.IRQLossPM) / 1000,
		ThrottleRate: float64(sp.ThrottleRate),
		ThrottlePState: func() int {
			if sp.ThrottleRate == 0 {
				return 0
			}
			return sp.ThrottlePS % (mm.MaxP() + 1)
		}(),
	}
	if sp.RTOMs > 0 {
		cfg.Retry = workload.RetryConfig{
			Timeout:    sim.Duration(sp.RTOMs) * sim.Millisecond,
			MaxRetries: sp.MaxRetries,
		}
	}
	if sp.CoreCrashAtMs > 0 {
		cfg.Faults.CoreCrashes = []faults.CoreCrash{{
			Core:     clampIndex(sp.CoreCrashCore, mm.NumCores),
			At:       sim.Duration(sp.CoreCrashAtMs) * sim.Millisecond,
			Duration: sim.Duration(max(sp.CoreCrashDurMs, 0)) * sim.Millisecond,
		}}
	}
	if sp.QueueStallAtMs > 0 {
		cfg.Faults.QueueStalls = []faults.QueueStall{{
			Queue:    clampIndex(sp.QueueStallQ, mm.NumCores),
			At:       sim.Duration(sp.QueueStallAtMs) * sim.Millisecond,
			Duration: sim.Duration(max(sp.QueueStallDurMs, 1)) * sim.Millisecond,
		}}
	}
	if sp.ShedSLOx10 > 0 {
		cfg.ShedSLOMultiple = float64(sp.ShedSLOx10) / 10
	}
	cfg.MaxEvents = sp.MaxEvents
	return cfg
}

// fleet lowers the fleet dimensions of the Spec: the scheduled
// link/node faults land in the node template's fault schedule f (the
// cluster, not the node, arms those classes) and the front-end knobs in
// the returned topology. Indices are clamped like the per-core faults
// so hand-edited reproducers stay runnable.
func (sp Spec) fleet(f *faults.Config) *cluster.Config {
	if sp.PartitionAtMs > 0 {
		f.Partitions = []faults.Partition{{
			Node:     clampIndex(sp.PartitionNode, sp.Nodes),
			Dir:      faults.LinkDir(clampIndex(sp.PartitionDir, 3)),
			At:       sim.Duration(sp.PartitionAtMs) * sim.Millisecond,
			Duration: sim.Duration(max(sp.PartitionDurMs, 0)) * sim.Millisecond,
		}}
	}
	if sp.LinkSlowAtMs > 0 {
		f.LinkSlows = []faults.LinkSlow{{
			Node:     clampIndex(sp.LinkSlowNode, sp.Nodes),
			At:       sim.Duration(sp.LinkSlowAtMs) * sim.Millisecond,
			Duration: sim.Duration(max(sp.LinkSlowDurMs, 1)) * sim.Millisecond,
			Factor:   float64(max(sp.LinkSlowFactor, 2)),
		}}
	}
	if sp.LinkLossAtMs > 0 {
		f.LinkLosses = []faults.LinkLoss{{
			Node:     clampIndex(sp.LinkLossNode, sp.Nodes),
			At:       sim.Duration(sp.LinkLossAtMs) * sim.Millisecond,
			Duration: sim.Duration(max(sp.LinkLossDurMs, 1)) * sim.Millisecond,
			Prob:     float64(min(max(sp.LinkLossPM, 1), 999)) / 1000,
		}}
	}
	if sp.NodeCrashAtMs > 0 {
		f.NodeCrashes = []faults.NodeCrash{{
			Node:     clampIndex(sp.NodeCrashNode, sp.Nodes),
			At:       sim.Duration(sp.NodeCrashAtMs) * sim.Millisecond,
			Duration: sim.Duration(max(sp.NodeCrashDurMs, 0)) * sim.Millisecond,
		}}
	}
	topo := &cluster.Config{
		Nodes:        sp.Nodes,
		Route:        sp.Route,
		RouteRetries: sp.RouteRetries,
		Health:       cluster.HealthConfig{FlapHold: sim.Duration(sp.FlapHoldMs) * sim.Millisecond},
		Fabric: cluster.FabricConfig{
			Base:  sim.Duration(sp.FabricBaseUs) * sim.Microsecond,
			Serve: sim.Duration(sp.FabricServeNs) * sim.Nanosecond,
		},
	}
	if sp.Hedge {
		topo.Hedge = cluster.HedgeConfig{Enabled: true}
	}
	return topo
}

// clampIndex folds a possibly hand-edited index into [0, n) (the word
// decoder already keeps it small; reproducer files may not).
func clampIndex(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Outcome is the audited result of running one Spec.
type Outcome struct {
	// Report is the audit report (nil only on assembly errors).
	Report *audit.Report
	// Aborted is true when the engine watchdog stopped the run early —
	// an expected outcome for specs that arm MaxEvents.
	Aborted bool
	// Err is the failure, nil when every invariant held. Assembly errors
	// and invariant violations both land here; watchdog aborts do not.
	Err error
}

// Failed reports whether the outcome is an invariant violation or an
// assembly failure (as opposed to clean or watchdog-aborted).
func (o Outcome) Failed() bool { return o.Err != nil }

// Check builds and runs one Spec under the auditor, as one cell of the
// default harness. Fleet specs (Nodes >= 2) run the whole cluster —
// front end, fabric, health prober, hedger — under the merged per-node
// + cluster-conservation audit; the rest run a single server.
func Check(sp Spec) Outcome {
	return CheckAll(new(experiments.Harness), []Spec{sp})[0]
}

// CheckAll checks every spec as one batch of cells on h's worker pool
// and returns the outcomes in input order. The batch runs with no
// cancellable context, so h arms no guard ticker unless h.RunTimeout is
// set: ticker events would count toward a spec's MaxEvents and move
// where its watchdog aborts.
func CheckAll(h *experiments.Harness, sps []Spec) []Outcome {
	outs := make([]Outcome, len(sps))
	var specs []experiments.Spec
	var idx []int
	for i, sp := range sps {
		es, err := sp.Experiment()
		if err != nil {
			outs[i].Err = err
			continue
		}
		specs = append(specs, es)
		idx = append(idx, i)
	}
	// Every cell's outcome is classified below; the batch error is only
	// the first of them.
	cells, _ := h.RunSpecs(context.Background(), specs)
	for k, c := range cells {
		outs[idx[k]] = classify(specs[k].Fleet != nil, c)
	}
	return outs
}

// classify turns an audited cell, a fleet's if fleet is set, into an
// Outcome. The watchdog abort itself is fine; violations, assembly
// errors, a missing audit report and an inconsistent single-server
// ledger are not (a fleet's front-end ledger is the cluster
// conservation rule's to check).
func classify(fleet bool, c experiments.CellResult) Outcome {
	rep, consistent := c.Result.Audit, c.Result.Reqs.Consistent()
	if fleet {
		rep, consistent = c.Fleet.Audit, true
	}
	out := Outcome{Report: rep}
	err := c.Err
	if errors.Is(err, sim.ErrWatchdog) {
		out.Aborted = true
		err = rep.Err()
	}
	switch {
	case err != nil:
		out.Err = err
	case rep == nil:
		out.Err = errors.New("fuzzer: audited run produced no audit report")
	case !consistent:
		out.Err = fmt.Errorf("fuzzer: ledger inconsistent without an audit violation: %+v", c.Result.Reqs)
	}
	return out
}

// shrinkMoves are the simplification steps Shrink tries, most aggressive
// first. Each returns a strictly simpler candidate (or no change).
var shrinkMoves = []func(Spec) Spec{
	// Collapsing the fleet to a single node is the most aggressive move:
	// when the failure survives it, every cluster knob goes at once.
	dropCluster,
	func(s Spec) Spec {
		s.PartitionAtMs = 0
		s.PartitionNode = 0
		s.PartitionDir = 0
		s.PartitionDurMs = 0
		return s
	},
	func(s Spec) Spec {
		s.LinkSlowAtMs = 0
		s.LinkSlowNode = 0
		s.LinkSlowDurMs = 0
		s.LinkSlowFactor = 0
		return s
	},
	func(s Spec) Spec {
		s.LinkLossAtMs = 0
		s.LinkLossNode = 0
		s.LinkLossDurMs = 0
		s.LinkLossPM = 0
		return s
	},
	func(s Spec) Spec { s.NodeCrashAtMs = 0; s.NodeCrashNode = 0; s.NodeCrashDurMs = 0; return s },
	func(s Spec) Spec { s.Hedge = false; return s },
	func(s Spec) Spec { s.FlapHoldMs = 0; return s },
	func(s Spec) Spec { s.FabricBaseUs = 0; s.FabricServeNs = 0; return s },
	func(s Spec) Spec { s.RouteRetries = 0; return s },
	func(s Spec) Spec {
		if s.Nodes >= 2 {
			s.Route = "rr"
		}
		return s
	},
	func(s Spec) Spec { s.WireLossPM = 0; return s },
	func(s Spec) Spec { s.IRQLossPM = 0; return s },
	func(s Spec) Spec { s.ThrottleRate = 0; s.ThrottlePS = 0; return s },
	func(s Spec) Spec { s.RTOMs = 0; s.MaxRetries = 0; return s },
	func(s Spec) Spec { s.CoreCrashAtMs = 0; s.CoreCrashCore = 0; s.CoreCrashDurMs = 0; return s },
	func(s Spec) Spec { s.QueueStallAtMs = 0; s.QueueStallQ = 0; s.QueueStallDurMs = 0; return s },
	func(s Spec) Spec { s.ShedSLOx10 = 0; return s },
	func(s Spec) Spec { s.SockQCap = 0; return s },
	func(s Spec) Spec { s.NICRing = 0; return s },
	func(s Spec) Spec { s.Flows = 0; s.LumpyRSS = false; return s },
	func(s Spec) Spec { s.ITRUs = 0; return s },
	func(s Spec) Spec { s.MaxEvents = 0; return s },
	func(s Spec) Spec { s.Idle = "menu"; return s },
	func(s Spec) Spec { s.Policy = "performance"; return s },
	func(s Spec) Spec { s.Level = "low"; return s },
	func(s Spec) Spec { s.Model = cpu.XeonGold6134.Name; return s },
	func(s Spec) Spec { s.Profile = workload.Memcached().Name; return s },
	func(s Spec) Spec { s.WarmupMs = 0; return s },
	func(s Spec) Spec {
		if s.DurationMs > 5 {
			s.DurationMs /= 2
			if s.DurationMs < 5 {
				s.DurationMs = 5
			}
		}
		return s
	},
}

// dropCluster zeroes every fleet dimension, returning the spec to the
// single-node path with no dangling cluster knobs.
func dropCluster(s Spec) Spec {
	s.Nodes, s.Route, s.RouteRetries, s.Hedge, s.FlapHoldMs = 0, "", 0, false, 0
	s.FabricBaseUs, s.FabricServeNs = 0, 0
	s.PartitionNode, s.PartitionDir, s.PartitionAtMs, s.PartitionDurMs = 0, 0, 0, 0
	s.LinkSlowNode, s.LinkSlowAtMs, s.LinkSlowDurMs, s.LinkSlowFactor = 0, 0, 0, 0
	s.LinkLossNode, s.LinkLossAtMs, s.LinkLossDurMs, s.LinkLossPM = 0, 0, 0, 0
	s.NodeCrashNode, s.NodeCrashAtMs, s.NodeCrashDurMs = 0, 0, 0
	return s
}

// Shrink greedily minimises a failing Spec: each simplification move is
// kept iff the simplified spec still fails the predicate, looping until
// a fixpoint or the budget of predicate evaluations is spent. Callers
// fuzzing real runs pass `func(s Spec) bool { return Check(s).Failed() }`.
// The result reproduces the failure with as few active knobs as
// possible.
func Shrink(sp Spec, failed func(Spec) bool, budget int) Spec {
	if budget <= 0 {
		budget = 64
	}
	changed := true
	for changed && budget > 0 {
		changed = false
		for _, move := range shrinkMoves {
			if budget <= 0 {
				break
			}
			cand := move(sp)
			if cand == sp {
				continue
			}
			budget--
			if failed(cand) {
				sp = cand
				changed = true
			}
		}
	}
	return sp
}

// MarshalSpec renders a reproducer as indented JSON.
func MarshalSpec(sp Spec) []byte {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil { // a Spec is plain data; this cannot happen
		panic(err)
	}
	return append(b, '\n')
}

// UnmarshalSpec parses a reproducer file.
func UnmarshalSpec(b []byte) (Spec, error) {
	var sp Spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return Spec{}, fmt.Errorf("fuzzer: bad reproducer: %w", err)
	}
	return sp, nil
}
