package experiments

import (
	"context"
	"fmt"
	"strings"

	"nmapsim/internal/cluster"
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// ---------------------------------------------------------------------
// Fig grayfail: gray-failure tolerance — one node's link degrades
// (repeated slow-downs, a one-way return-leg cut, a lossy window)
// without the node itself ever failing, and three front-end postures
// face it: a naive health prober, a flap-damped prober, and flap
// damping plus tail-latency request hedging.
// ---------------------------------------------------------------------

// GrayFigure is the fig-grayfail result. Arms reuse the fig-cluster arm
// shape: per-bucket P99/resteer/offline timeline plus the full cluster
// Result (markdowns/markups, hedge and fabric ledgers).
type GrayFigure struct {
	App   string
	Nodes int
	Route string
	// GrayNode is the node whose link the scenario degrades.
	GrayNode int
	// SlowAtMs lists the starts of the linkslow windows; CutAtMs /
	// CutEndMs bound the one-way (return-leg) partition; LossAtMs
	// starts the lossy window.
	SlowAtMs          []int
	CutAtMs, CutEndMs int
	LossAtMs          int
	BucketMs          int
	Arms              []ClusterArm
}

// grayFabric is the interconnect model every fig-grayfail arm runs on:
// a few µs of propagation, visible queueing under load, and seeded
// jitter so hedge timers see a real latency distribution.
func grayFabric() cluster.FabricConfig {
	return cluster.FabricConfig{
		Base:   4 * sim.Microsecond,
		Serve:  200 * sim.Nanosecond,
		Jitter: sim.Microsecond,
	}
}

// figGrayFailCtx runs memcached across a cluster whose node-1 link goes
// gray mid-run: three linkslow windows (factor 8) across the first half
// of the measured window, a one-way return-leg partition at 5/8 of the
// window (responses vanish, requests still land — the orphan-producing
// asymmetry), and a 5% lossy window near the end. Three arms face the
// same wire: health-naive (no flap damping), flap-damped (exponential
// mark-down hold-off plus a fabric-aware probe timeout), and
// flap-damped+hedged (the same prober plus tail-latency hedging).
//
// The arms run on the bounded worker pool and the figure renders
// byte-identically at any parallelism, like fig-cluster. Cancelling ctx
// checkpoints finished and in-flight arms exactly as figClusterCtx
// does.
func (h *Harness) figGrayFailCtx(ctx context.Context, q Quality, nodes int, route string) (GrayFigure, error) {
	if nodes < 2 {
		return GrayFigure{}, fmt.Errorf("experiments: fig-grayfail needs at least 2 nodes, got %d", nodes)
	}
	prof := workload.Memcached()
	warm, dur := q.warmup(), q.duration()
	bucket := dur / 20

	const grayNode = 1
	f, retry := h.Faults, h.Retry
	slowDur := dur / 16
	slowAts := []sim.Duration{warm + dur/8, warm + dur/4, warm + 3*dur/8}
	for _, at := range slowAts {
		f.LinkSlows = append(f.LinkSlows, faults.LinkSlow{
			Node: grayNode, At: at, Duration: slowDur, Factor: 8,
		})
	}
	cutAt, cutDur := warm+5*dur/8, dur/8
	f.Partitions = append(f.Partitions, faults.Partition{
		Node: grayNode, Dir: faults.LinkRx, At: cutAt, Duration: cutDur,
	})
	lossAt := warm + 13*dur/16
	f.LinkLosses = append(f.LinkLosses, faults.LinkLoss{
		Node: grayNode, At: lossAt, Duration: slowDur, Prob: 0.05,
	})

	node := figSpec(q, prof, "nmap", "menu")
	node.Cfg.RPS = prof.HighRPS * float64(nodes) * clusterLoadFrac
	node.Cfg.Faults, node.Cfg.Retry = f, retry
	fig := GrayFigure{
		App:      prof.Name,
		Nodes:    nodes,
		Route:    route,
		GrayNode: grayNode,
		CutAtMs:  int(cutAt / sim.Millisecond),
		CutEndMs: int((cutAt + cutDur) / sim.Millisecond),
		LossAtMs: int(lossAt / sim.Millisecond),
		BucketMs: int(bucket / sim.Millisecond),
	}
	for _, at := range slowAts {
		fig.SlowAtMs = append(fig.SlowAtMs, int(at/sim.Millisecond))
	}

	naive := cluster.Config{
		Nodes:        nodes,
		Route:        route,
		RouteRetries: 2,
		Health:       cluster.HealthConfig{ProbeTimeout: 20 * sim.Microsecond},
		Fabric:       grayFabric(),
	}
	damped := naive
	damped.Health.FlapHold = dur / 8
	hedged := damped
	hedged.Hedge = cluster.HedgeConfig{Enabled: true}
	arms := []Spec{node, node, node}
	arms[0].Fleet, arms[1].Fleet, arms[2].Fleet = &naive, &damped, &hedged
	var err error
	fig.Arms, err = h.runFleetArms(ctx, []string{"health-naive", "flap-damped", "flap-damped+hedged"}, arms, bucket)
	return fig, err
}

// renderGrayFail formats the gray-failure figure: a header naming the
// scheduled link degradations, then the shared per-arm timeline tables
// and summaries. A figure with no arm in hand renders nothing.
func renderGrayFail(title string, fig GrayFigure) string {
	if len(fig.Arms) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %d nodes, route=%s (%s), gray link on node %d ==\n",
		title, fig.Nodes, fig.Route, fig.App, fig.GrayNode)
	fmt.Fprintf(&b, "link: slow x8 at %v ms, one-way cut (responses) %d-%dms, 5%% loss at %dms\n",
		fig.SlowAtMs, fig.CutAtMs, fig.CutEndMs, fig.LossAtMs)
	for _, arm := range fig.Arms {
		renderClusterArm(&b, arm)
	}
	return b.String()
}
