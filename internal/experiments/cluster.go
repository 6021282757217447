package experiments

import (
	"context"
	"fmt"
	"strings"

	"nmapsim/internal/cluster"
	"nmapsim/internal/cpu"
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// ---------------------------------------------------------------------
// Fig cluster: fleet-level resilience — cluster P99 / energy / offline-
// node timeline through a node crash, per-node governors vs a fleet
// power cap.
// ---------------------------------------------------------------------

// ClusterArm is one pass through the fleet scenario.
type ClusterArm struct {
	Name string
	// CapW is the fleet power budget (0 = per-node governors only).
	CapW float64
	// Buckets count router resteers and offline nodes.
	Buckets []TimelineBucket
	Result  cluster.Result
	// Done is false when the arm was cut short (ctx cancellation): the
	// Result then summarises the fleet as of the abort instant, every
	// node still present in input order.
	Done bool
}

// ClusterFigure is the fig-cluster result.
type ClusterFigure struct {
	App   string
	Nodes int
	Route string
	// CrashNode / CrashAtMs / RecoverAtMs describe the scheduled node
	// outage (CrashNode -1 = no node fault scheduled).
	CrashNode              int
	CrashAtMs, RecoverAtMs int
	BucketMs               int
	Arms                   []ClusterArm
}

// clusterLoadFrac sizes the front-end offered load at 70% of the
// fleet's aggregate high-load capacity: enough headroom that survivors
// can absorb a one-node outage, tight enough that the outage is visible
// in the P99 timeline.
const clusterLoadFrac = 0.7

// clusterCapFrac sets the fleet power budget of the capped arm as a
// fraction of the fleet's aggregate TDP.
const clusterCapFrac = 0.45

// figClusterCtx runs memcached across a cluster of NMAP nodes behind
// the routing front end, kills node 1 mid-run (unless h.Faults already
// schedules node faults), and plots the per-bucket cluster P99 /
// resteer / offline-node timeline for two arms: per-node NMAP
// governors, and per-node ondemand under a fleet power cap.
//
// The arms run on the bounded worker pool (each owns its engine and
// seeded streams, results collected by index), so the rendered figure
// is byte-identical at any parallelism. With hedge set, both arms run
// with tail-latency request hedging armed.
//
// Cancelling ctx checkpoints what is in hand: every finished arm is
// kept, each in-flight arm is collected as of the abort instant with
// all its per-node results in input order (Done=false), never-started
// arms are absent, and ctx.Err() is returned alongside the partial
// figure.
func (h *Harness) figClusterCtx(ctx context.Context, q Quality, nodes int, route string, hedge bool) (ClusterFigure, error) {
	if nodes < 1 {
		return ClusterFigure{}, fmt.Errorf("experiments: fig-cluster needs at least 1 node, got %d", nodes)
	}
	prof := workload.Memcached()
	warm, dur := q.warmup(), q.duration()
	bucket := dur / 20

	f, retry := h.Faults, h.Retry
	if nodes > 1 && len(f.NodeCrashes) == 0 && len(f.NodeSlows) == 0 {
		// Default scenario: node 1 dies roughly a quarter into the
		// measured window and reboots a quarter later. The instant is
		// aligned a tenth of a period into a burst window so the victim
		// dies with requests in flight — otherwise the crash would land
		// in an inter-burst gap and the resteer path would never fire.
		p := prof.Burst.Period
		at := ((warm+dur/4)/p+1)*p + p/10
		f.NodeCrashes = []faults.NodeCrash{{Node: 1, At: at, Duration: dur / 4}}
	}
	fig := ClusterFigure{
		App:       prof.Name,
		Nodes:     nodes,
		Route:     route,
		CrashNode: -1,
		BucketMs:  int(bucket / sim.Millisecond),
	}
	if len(f.NodeCrashes) > 0 {
		nc := f.NodeCrashes[0]
		fig.CrashNode = nc.Node
		fig.CrashAtMs = int(nc.At / sim.Millisecond)
		fig.RecoverAtMs = int((nc.At + nc.Duration) / sim.Millisecond)
	}

	node := figSpec(q, prof, "nmap", "menu")
	node.Cfg.RPS = prof.HighRPS * float64(nodes) * clusterLoadFrac
	node.Cfg.Faults, node.Cfg.Retry = f, retry
	uncapped := cluster.Config{Nodes: nodes, Route: route, RouteRetries: 2}
	if hedge {
		uncapped.Hedge = cluster.HedgeConfig{Enabled: true}
	}
	capped := uncapped
	capped.FleetPowerCapW = clusterCapFrac * float64(nodes) * cpu.XeonGold6134.MaxPowerW()
	arms := []Spec{node, node}
	arms[0].Fleet = &uncapped
	arms[1].Policy, arms[1].Fleet = "ondemand", &capped
	var err error
	fig.Arms, err = h.runFleetArms(ctx, []string{"nmap-per-node", "ondemand+fleet-cap"}, arms, bucket)
	return fig, err
}

// runFleetArms runs a fleet figure's arms, named names and run as the
// fleet specs specs, as cells on the worker pool, each with a timeline
// observer bucketing front-end completions and sampling the
// resteer/offline-node counters. Results land by index, so the arm
// order is the input order at any parallelism. An arm the context cut
// off before it started is absent (nothing ran, nothing is fabricated);
// an arm cut short mid-run is kept with Done false and its Result as of
// the abort instant. The error is ctx.Err() if the run was cut short,
// else the first arm error.
func (h *Harness) runFleetArms(ctx context.Context, names []string, specs []Spec, bucket sim.Duration) ([]ClusterArm, error) {
	cells := make([]cell, len(specs))
	sms := make([]*sampler, len(specs))
	for i, spec := range specs {
		cells[i] = cell{
			spec: spec,
			observeFleet: func(cl *cluster.Cluster) {
				sms[i] = sampleFleet(cl, spec.Cfg.Warmup+spec.Cfg.Duration, bucket)
			},
		}
	}
	outs, err := h.runCells(ctx, cells)
	var out []ClusterArm
	for i, c := range outs {
		if c.Attempts == 0 {
			continue
		}
		arm := ClusterArm{Name: names[i], CapW: specs[i].Fleet.FleetPowerCapW, Result: c.Fleet, Done: c.Done}
		if sms[i] != nil {
			arm.Buckets = sms[i].timeline()
		}
		out = append(out, arm)
	}
	return out, err
}

// renderCluster formats the fleet timeline: one table per arm plus a
// fleet summary footer. A figure with no arm in hand renders nothing.
func renderCluster(title string, fig ClusterFigure) string {
	if len(fig.Arms) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %d nodes, route=%s (%s)", title, fig.Nodes, fig.Route, fig.App)
	if fig.CrashNode >= 0 {
		fmt.Fprintf(&b, ", node %d down %d-%dms", fig.CrashNode, fig.CrashAtMs, fig.RecoverAtMs)
	}
	b.WriteString(" ==\n")
	for _, arm := range fig.Arms {
		renderClusterArm(&b, arm)
	}
	return b.String()
}

// renderClusterArm appends one arm's timeline table and summary footer
// (shared by renderCluster and renderGrayFail, so the two figures keep
// byte-identical arm bodies).
func renderClusterArm(b *strings.Builder, arm ClusterArm) {
	title := fmt.Sprintf("\n-- %s --", arm.Name)
	if !arm.Done {
		title += " (partial)"
	}
	writeTimeline(b, title, "resteers", "offline-nodes", arm.Buckets)
	r := arm.Result
	fmt.Fprintf(b, "fleet: p99=%.3fms (SLO %.0fms, violated=%v) energy=%.1fJ power=%.1fW cap-steps=%d\n",
		r.Summary.P99.Millis(), r.SLO.Millis(), r.Violated, r.EnergyJ, r.AvgPowerW, r.CapInterventions)
	fmt.Fprintf(b, "front: issued=%d done=%d failed=%d unroutable=%d resteers=%d markdowns=%d markups=%d\n",
		r.Front.Issued, r.Front.Completed, r.Front.Failed, r.Front.Unroutable,
		r.Front.Resteers, r.MarkDowns, r.MarkUps)
	if r.Front.Hedges > 0 || r.Front.HedgeDupDone > 0 || r.Front.HedgeDupFail > 0 {
		fmt.Fprintf(b, "hedge: dispatched=%d dup-done=%d dup-fail=%d\n",
			r.Front.Hedges, r.Front.HedgeDupDone, r.Front.HedgeDupFail)
	}
	if r.Fabric != (cluster.FabricStats{}) {
		fmt.Fprintf(b, "fabric: req-lost=%d resp-lost=%d req-transit=%d resp-transit=%d\n",
			r.Fabric.ReqLost, r.Fabric.RespLost, r.Fabric.ReqInTransit, r.Fabric.RespInTransit)
	}
	if r.Faults.Partitions+r.Faults.LinkSlows+r.Faults.LinkLosses > 0 {
		fmt.Fprintf(b, "link-faults: partitions=%d (healed %d) slows=%d lossy-windows=%d\n",
			r.Faults.Partitions, r.Faults.PartitionHeals, r.Faults.LinkSlows, r.Faults.LinkLosses)
	}
	for i, nr := range r.Nodes {
		fmt.Fprintf(b, "  node %d: done=%d p99=%.3fms energy=%.1fJ\n",
			i, nr.Reqs.Completed, nr.Summary.P99.Millis(), nr.EnergyJ)
	}
}
