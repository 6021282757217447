package governor

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
)

// Disable is the "disable" idle policy of §5.2: the core never leaves
// CC0 (poll idle). intel_powersave consequently reads 100% CC0
// residency and pegs P0.
type Disable struct{}

// Name implements kernel.IdlePolicy.
func (Disable) Name() string { return "disable" }

// SelectState implements kernel.IdlePolicy.
func (Disable) SelectState(int) cpu.CState { return cpu.CC0 }

// IdleEnded implements kernel.IdlePolicy.
func (Disable) IdleEnded(int, sim.Duration) {}

// C6Only is the "c6only" policy of §5.2: every idle period goes straight
// to the deepest state.
type C6Only struct{}

// Name implements kernel.IdlePolicy.
func (C6Only) Name() string { return "c6only" }

// SelectState implements kernel.IdlePolicy.
func (C6Only) SelectState(int) cpu.CState { return cpu.CC6 }

// IdleEnded implements kernel.IdlePolicy.
func (C6Only) IdleEnded(int, sim.Duration) {}

// Menu models the Linux menu governor (§2.2): it predicts the next idle
// interval from the recent idle history of each core and picks the
// deepest C-state whose break-even residency the prediction covers.
type Menu struct {
	hist []menuHist // indexed by core ID, grown on first sight
}

// The menu governor's break-even residencies: the minimum predicted
// idle interval that makes CC6 (wake latency + flush penalty
// amortisation) or CC1 worthwhile.
const (
	menuCC6Breakeven = 200 * sim.Microsecond
	menuCC1Breakeven = 2 * sim.Microsecond
)

const menuHistLen = 8

type menuHist struct {
	vals [menuHistLen]sim.Duration
	n    int
	idx  int
}

func (h *menuHist) add(d sim.Duration) {
	h.vals[h.idx] = d
	h.idx = (h.idx + 1) % menuHistLen
	if h.n < menuHistLen {
		h.n++
	}
}

// predict returns a conservative estimate of the next idle interval: the
// mean of the recent history, shrunk toward the minimum to avoid
// over-deep sleeps after a burst of short idles (the menu governor's
// "typical interval" heuristic).
func (h *menuHist) predict() sim.Duration {
	if h.n == 0 {
		return 0
	}
	var sum sim.Duration
	min := h.vals[0]
	for i := 0; i < h.n; i++ {
		sum += h.vals[i]
		if h.vals[i] < min {
			min = h.vals[i]
		}
	}
	mean := sum / sim.Duration(h.n)
	return (mean + min) / 2
}

// Name implements kernel.IdlePolicy.
func (*Menu) Name() string { return "menu" }

// SelectState implements kernel.IdlePolicy.
func (m *Menu) SelectState(coreID int) cpu.CState {
	h := m.core(coreID)
	p := h.predict()
	switch {
	case h.n == 0:
		// No history yet: be shallow.
		return cpu.CC1
	case p >= menuCC6Breakeven:
		return cpu.CC6
	case p >= menuCC1Breakeven:
		return cpu.CC1
	default:
		return cpu.CC0
	}
}

// IdleEnded implements kernel.IdlePolicy.
func (m *Menu) IdleEnded(coreID int, d sim.Duration) {
	m.core(coreID).add(d)
}

// core returns coreID's idle history, growing the table to it on first
// sight.
func (m *Menu) core(coreID int) *menuHist {
	if coreID >= len(m.hist) {
		m.hist = append(m.hist, make([]menuHist, coreID+1-len(m.hist))...)
	}
	return &m.hist[coreID]
}

// IdlePolicies lists the idle policy names NewIdlePolicy accepts. The
// fuzzer decodes its idle word by index into this list, so the order is
// part of every fuzz reproducer.
var IdlePolicies = []string{"menu", "disable", "c6only"}

// NewIdlePolicy returns the idle policy with the given name, one of
// IdlePolicies.
func NewIdlePolicy(name string) (interface {
	Name() string
	SelectState(int) cpu.CState
	IdleEnded(int, sim.Duration)
}, bool) {
	switch name {
	case "menu":
		return &Menu{}, true
	case "disable":
		return Disable{}, true
	case "c6only":
		return C6Only{}, true
	}
	return nil, false
}
