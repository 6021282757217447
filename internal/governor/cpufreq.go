package governor

import (
	"fmt"

	"nmapsim/internal/cpu"
)

// Performance statically holds every core at P0 (§2.2).
type Performance struct{}

// Name implements CPUGovernor.
func (Performance) Name() string { return "performance" }

// Decide implements CPUGovernor.
func (Performance) Decide(int, UtilSample) int { return 0 }

// Powersave statically holds every core at the slowest state.
type Powersave struct{ Model *cpu.Model }

// Name implements CPUGovernor.
func (Powersave) Name() string { return "powersave" }

// Decide implements CPUGovernor.
func (g Powersave) Decide(int, UtilSample) int { return g.Model.MaxP() }

// Userspace holds every core at a user-chosen state.
type Userspace struct {
	Model *cpu.Model
	P     int
}

// Name implements CPUGovernor.
func (g Userspace) Name() string { return fmt.Sprintf("userspace(P%d)", g.P) }

// Decide implements CPUGovernor.
func (g Userspace) Decide(int, UtilSample) int { return g.P }

// upThreshold is the busy fraction at and above which ondemand,
// conservative and intel_powersave ask for P0 (the kernel's 80%).
const upThreshold = 0.80

// conservativeDownThreshold is the busy fraction below which the
// conservative governor steps one state slower.
const conservativeDownThreshold = 0.20

// intel_powersave's EWMA weights: a sample above the current estimate
// moves it by alphaUp, one below it by alphaDown.
const (
	alphaUp   = 0.2
	alphaDown = 0.6
)

// utilToPState maps a utilisation to the slowest P-state whose frequency
// still covers util/upThreshold of the maximum frequency — the classic
// ondemand frequency ladder.
func utilToPState(m *cpu.Model, util float64) int {
	if util >= upThreshold {
		return 0
	}
	fmax := m.PStates[0].FreqGHz
	fmin := m.PStates[m.MaxP()].FreqGHz
	target := fmin + float64((util/upThreshold)*(fmax-fmin))
	// Pick the slowest state with frequency >= target.
	for p := m.MaxP(); p >= 0; p-- {
		if m.PStates[p].FreqGHz >= target {
			return p
		}
	}
	return 0
}

// Ondemand is the classic cpufreq ondemand governor: jump to P0 when
// busy utilisation exceeds the up-threshold (80%), otherwise scale
// frequency proportionally to utilisation (§2.2).
type Ondemand struct {
	Model *cpu.Model
}

// Name implements CPUGovernor.
func (Ondemand) Name() string { return "ondemand" }

// Decide implements CPUGovernor.
func (g Ondemand) Decide(_ int, u UtilSample) int {
	return utilToPState(g.Model, u.Busy)
}

// Conservative steps the P-state gradually toward the load instead of
// jumping (§2.2: "gradually adjusts the next V/F state by transitioning
// to a value near the current V/F state").
type Conservative struct {
	Model *cpu.Model

	cur []int
}

// Name implements CPUGovernor.
func (*Conservative) Name() string { return "conservative" }

// Decide implements CPUGovernor.
func (g *Conservative) Decide(coreID int, u UtilSample) int {
	if g.cur == nil {
		g.cur = make([]int, g.Model.NumCores)
		for i := range g.cur {
			g.cur[i] = g.Model.MaxP()
		}
	}
	c := g.cur[coreID]
	switch {
	case u.Busy > upThreshold && c > 0:
		c--
	case u.Busy < conservativeDownThreshold && c < g.Model.MaxP():
		c++
	}
	g.cur[coreID] = c
	return c
}

// IntelPowersave models the intel_pstate driver's powersave governor: it
// derives utilisation from CC0 residency (so with C-states disabled it
// reads 100% and pegs P0 — the footnote behaviour in §6.2) and smooths
// it with an asymmetric EWMA — quick to shed frequency when load falls,
// slow to ramp when load rises (the busy-fraction setpoint controller's
// behaviour) — which is why it violates the SLO by larger factors than
// ondemand in Figs 12/14.
type IntelPowersave struct {
	Model *cpu.Model

	ewma []float64
}

// Name implements CPUGovernor.
func (*IntelPowersave) Name() string { return "intel_powersave" }

// Decide implements CPUGovernor.
func (g *IntelPowersave) Decide(coreID int, u UtilSample) int {
	if g.ewma == nil {
		g.ewma = make([]float64, g.Model.NumCores)
	}
	a := alphaUp
	if u.CC0 < g.ewma[coreID] {
		a = alphaDown
	}
	g.ewma[coreID] = float64((1-a)*g.ewma[coreID]) + float64(a*u.CC0)
	return utilToPState(g.Model, g.ewma[coreID])
}
