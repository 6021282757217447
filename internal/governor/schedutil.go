package governor

import (
	"nmapsim/internal/cpu"
)

// schedutilHeadroom is the kernel's 1.25 frequency headroom, and
// schedutilHoldTicks the number of consecutive samples a lower target
// must persist before the frequency drops.
const (
	schedutilHeadroom  = 1.25
	schedutilHoldTicks = 2
)

// Schedutil models the modern Linux default governor (not part of the
// paper's comparison, provided as an extension): it maps utilisation to
// frequency with the kernel's 1.25 headroom formula
//
//	f_target = 1.25 · f_max · util
//
// and applies a rate limit — downward moves are held off until the
// utilisation has been below the current level for two samples, which
// suppresses the flapping ondemand shows around the threshold.
type Schedutil struct {
	Model *cpu.Model

	cur  []int
	hold []int
}

// Name implements CPUGovernor.
func (*Schedutil) Name() string { return "schedutil" }

// Decide implements CPUGovernor.
func (g *Schedutil) Decide(coreID int, u UtilSample) int {
	if g.cur == nil {
		g.cur = make([]int, g.Model.NumCores)
		g.hold = make([]int, g.Model.NumCores)
		for i := range g.cur {
			g.cur[i] = g.Model.MaxP()
		}
	}
	fmax := g.Model.PStates[0].FreqGHz
	target := schedutilHeadroom * fmax * u.Busy
	// Slowest state whose frequency covers the target.
	next := 0
	for p := g.Model.MaxP(); p >= 0; p-- {
		if g.Model.PStates[p].FreqGHz >= target {
			next = p
			break
		}
	}
	switch {
	case next < g.cur[coreID]:
		// Upward (faster): apply immediately.
		g.cur[coreID] = next
		g.hold[coreID] = 0
	case next > g.cur[coreID]:
		// Downward: require persistence.
		g.hold[coreID]++
		if g.hold[coreID] >= schedutilHoldTicks {
			g.cur[coreID] = next
			g.hold[coreID] = 0
		}
	default:
		g.hold[coreID] = 0
	}
	return g.cur[coreID]
}
