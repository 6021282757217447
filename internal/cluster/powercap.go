package cluster

import "nmapsim/internal/sim"

// capPeriod is the fleet power-cap coordinator's control period.
const capPeriod = 10 * sim.Millisecond

// powerCap is the fleet-level power coordinator: a deterministic
// integral controller that measures fleet package power once per
// control period and clamps every node's cores one P-state deeper for
// each period over budget, releasing a step once power falls below 90%
// of the cap. It layers on top of each node's own governor through the
// processor's clamp mechanism (effective P-state = max(clamp, governor
// request)), exactly like the transient-throttle fault path — and like
// it, the clamp is recorded even for offline cores, so a node that
// reboots mid-intervention comes back capped.
type powerCap struct {
	c    *Cluster
	capW float64

	// level is the current fleet-wide clamp depth (0 = released);
	// lastE the fleet energy reading at the previous tick.
	lastE         float64
	level         int
	interventions uint64
}

func (pc *powerCap) start() {
	pc.lastE = pc.c.totalEnergyJ()
	pc.c.Eng.Ticker(capPeriod, pc.tick)
}

func (pc *powerCap) tick() {
	e := pc.c.totalEnergyJ()
	w := (e - pc.lastE) / (float64(capPeriod) / 1e9)
	pc.lastE = e
	maxP := pc.c.Nodes[0].Srv.Cfg.Model.MaxP()
	switch {
	case w > pc.capW && pc.level < maxP:
		pc.level++
		pc.interventions++
		pc.apply()
	case pc.level > 0 && w < 0.9*pc.capW:
		pc.level--
		pc.apply()
	}
}

// apply pushes the current clamp depth to every core of every node.
func (pc *powerCap) apply() {
	for _, n := range pc.c.Nodes {
		for core := range n.Srv.Proc.Cores {
			if pc.level == 0 {
				n.Srv.Proc.Unthrottle(core)
			} else {
				n.Srv.Proc.Throttle(core, pc.level)
			}
		}
	}
}
