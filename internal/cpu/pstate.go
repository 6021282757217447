// Package cpu models the processor substrate of the NMAP reproduction:
// per-core P-states (DVFS) with realistic transition and re-transition
// latencies, C-states (sleep states) with wake-up and cache-flush
// penalties, a V²f power model with exact energy integration, and a
// cycle-based execution primitive that the kernel model drives.
//
// Four processor models from the paper are provided (two desktop, two
// server parts); their latency constants come from Tables 1 and 2 of the
// paper, which the Table-1/Table-2 micro-harnesses in package measure
// re-derive by the paper's own measurement procedure.
package cpu

import (
	"fmt"

	"nmapsim/internal/sim"
)

// PState is one voltage/frequency operating point. Index 0 is always the
// fastest state (P0 in ACPI parlance); larger indices are slower.
type PState struct {
	// FreqGHz is the core clock in GHz. Because simulation time is in
	// nanoseconds, FreqGHz is also "cycles per nanosecond".
	FreqGHz float64
	// Volt is the supply voltage at this operating point, in volts.
	Volt float64
}

// CState identifies a core sleep state. The paper uses CC0 (active),
// CC1 (clock-gated) and CC6 (deep: core + private caches powered off).
type CState int

const (
	// CC0 is the active state: the core executes instructions (or idles
	// with the clock running).
	CC0 CState = iota
	// CC1 halts the clock but keeps state; wake-up is sub-microsecond.
	CC1
	// CC6 powers off the core and flushes private caches; waking costs
	// tens of microseconds plus a cache-refill penalty.
	CC6
)

// String returns the conventional name of the C-state.
func (c CState) String() string {
	switch c {
	case CC0:
		return "CC0"
	case CC1:
		return "CC1"
	case CC6:
		return "CC6"
	}
	return fmt.Sprintf("CC%d?", int(c))
}

// TransitionClass names the six P-state transitions characterised in
// Table 1 of the paper.
type TransitionClass int

const (
	MaxToMaxMinus1 TransitionClass = iota
	MaxMinus1ToMax
	MaxToMin
	MinToMax
	MinPlus1ToMin
	MinToMinPlus1
)

// String renders the transition in the paper's notation.
func (tc TransitionClass) String() string {
	switch tc {
	case MaxToMaxMinus1:
		return "Pmax->Pmax-1"
	case MaxMinus1ToMax:
		return "Pmax-1->Pmax"
	case MaxToMin:
		return "Pmax->Pmin"
	case MinToMax:
		return "Pmin->Pmax"
	case MinPlus1ToMin:
		return "Pmin+1->Pmin"
	case MinToMinPlus1:
		return "Pmin->Pmin+1"
	}
	return "?"
}

// LatencySpec is a (mean, stdev) pair for a stochastic latency.
type LatencySpec struct {
	Mean  sim.Duration
	Stdev sim.Duration
}

// PowerParams parameterises the per-core and package power model. With
// vr = V/Vmax and fr = f/fmax of the core's current operating point, and
// u = UncoreDynW/NumCores:
//
//	P_core(active, p)  = DynW·vr²·fr + StaticW·vr + u·vr²·fr
//	P_core(CC0 idle,p) = IdleActivity·DynW·vr²·fr + StaticW·vr + u·vr²·fr
//	P_core(CC1, p)     = CC1W·vr + u·vr²·fr      (clock gated, still at V)
//	P_core(CC6, p)     = CC6W + u·vr²·fr         (power gated)
//	P_core(waking)     = WakeW + u·vr²·fr
//	P_package          = Σ P_core + UncoreW
//
// The per-core uncore-dynamic share models the part of the mesh/LLC
// clock domain that scales with the core's V/F — it is what makes the
// package energy P-state-sensitive even while cores sleep, as RAPL
// measurements on these parts show.
type PowerParams struct {
	// DynW is the dynamic power of one fully busy core at P0, in watts.
	DynW float64
	// StaticW is the leakage power of one core at Vmax, in watts.
	StaticW float64
	// IdleActivity is the fraction of dynamic power burnt while the core
	// sits in CC0 without work (clock running, pipeline idle).
	IdleActivity float64
	// CC1W is the per-core clock-gated power at Vmax (scales linearly
	// with voltage); CC6W is the power-gated floor.
	CC1W, CC6W float64
	// WakeW is the power drawn during a C-state exit transition.
	WakeW float64
	// UncoreW is the package-constant power; UncoreDynW is the
	// V/F-scaled uncore power at P0 (split evenly across cores).
	UncoreW, UncoreDynW float64
}

// Model describes one processor part: its P-state table, DVFS latency
// behaviour, C-state latencies and power parameters.
type Model struct {
	Name     string
	NumCores int
	// PerCoreDVFS reports whether each core can hold its own V/F state
	// (true for the Xeon Gold 6134 used in the paper's evaluation).
	PerCoreDVFS bool
	// PStates lists operating points, fastest first.
	PStates []PState
	// ACPILatency is the V/F transition latency advertised in the
	// ACPI DSDT/SSDT tables (10µs on all parts per §5.1). It applies to
	// an isolated transition issued while the core has been settled.
	ACPILatency sim.Duration
	// SettleWindow is how long after a transition takes effect a new
	// request still pays the re-transition latency instead of
	// ACPILatency.
	SettleWindow sim.Duration
	// ReTransition holds the Table-1 measured re-transition latencies
	// for the six characterised transitions.
	ReTransition map[TransitionClass]LatencySpec
	// WakeCC1 and WakeCC6 are the Table-2 wake-up latencies.
	WakeCC1, WakeCC6 LatencySpec
	// CC6FlushPenalty is the worst-case time to re-fill the private
	// caches after a CC6 wake (§5.2: 7µs on E5-2620v4, 26.4µs on Gold
	// 6134). The model charges CC6FlushFraction of it on each wake.
	CC6FlushPenalty  sim.Duration
	CC6FlushFraction float64
	Power            PowerParams
}

// MaxP returns the index of the slowest P-state (Pmin).
func (m *Model) MaxP() int { return len(m.PStates) - 1 }

// MaxPowerW returns the package power ceiling: every core in its most
// expensive condition (the larger of all-busy-at-P0 and the C-state
// exit transition) plus the full uncore. No reachable configuration
// draws more, which makes it the energy-sanity bound the invariant
// auditor checks package energy against.
func (m *Model) MaxPowerW() float64 {
	pp := m.Power
	core := pp.DynW + pp.StaticW
	for _, w := range []float64{pp.WakeW, pp.CC1W, pp.CC6W} {
		if w > core {
			core = w
		}
	}
	return float64(float64(m.NumCores)*core) + pp.UncoreDynW + pp.UncoreW
}

// FreqAt returns the clock at P-state index p in GHz.
func (m *Model) FreqAt(p int) float64 { return m.PStates[p].FreqGHz }

// Classify maps an arbitrary (from, to) transition onto the nearest
// Table-1 class, used to pick a re-transition latency for transitions the
// paper did not measure directly.
func (m *Model) Classify(from, to int) TransitionClass {
	min := m.MaxP()
	up := to < from // lower index = higher frequency
	span := from - to
	if span < 0 {
		span = -span
	}
	big := span > min/2
	nearMin := from > min/2 && to > min/2
	switch {
	case big && up:
		return MinToMax
	case big && !up:
		return MaxToMin
	case nearMin && up:
		return MinToMinPlus1
	case nearMin && !up:
		return MinPlus1ToMin
	case up:
		return MaxMinus1ToMax
	default:
		return MaxToMaxMinus1
	}
}

// ReTransLatency samples a re-transition latency for the (from, to) pair.
func (m *Model) ReTransLatency(from, to int, rng *sim.RNG) sim.Duration {
	spec := m.ReTransition[m.Classify(from, to)]
	return rng.NormalDur(spec.Mean, spec.Stdev, sim.Microsecond)
}

// WakeLatency samples the wake-up latency from the given C-state.
func (m *Model) WakeLatency(from CState, rng *sim.RNG) sim.Duration {
	switch from {
	case CC1:
		return rng.NormalDur(m.WakeCC1.Mean, m.WakeCC1.Stdev, 0)
	case CC6:
		return rng.NormalDur(m.WakeCC6.Mean, m.WakeCC6.Stdev, sim.Microsecond)
	}
	return 0
}

// linearPStates builds an evenly spaced P-state table between fmin and
// fmax (GHz) with a linear V(f) from vmin to vmax.
func linearPStates(n int, fminGHz, fmaxGHz, vmin, vmax float64) []PState {
	ps := make([]PState, n)
	for i := 0; i < n; i++ {
		// Index 0 is the fastest state.
		frac := float64(i) / float64(n-1)
		f := fmaxGHz - float64(frac*(fmaxGHz-fminGHz))
		v := vmax - float64(frac*(vmax-vmin))
		ps[i] = PState{FreqGHz: f, Volt: v}
	}
	return ps
}

func us(f float64) sim.Duration { return sim.Duration(f * 1000) }

// The four processor models characterised in Tables 1 and 2.
var (
	// I76700 is the Intel i7-6700 desktop part (4 cores, 0.8–3.4 GHz).
	I76700 = &Model{
		Name:         "Intel i7-6700",
		NumCores:     4,
		PerCoreDVFS:  false,
		PStates:      linearPStates(14, 0.8, 3.4, 0.65, 1.10),
		ACPILatency:  10 * sim.Microsecond,
		SettleWindow: 100 * sim.Microsecond,
		ReTransition: map[TransitionClass]LatencySpec{
			MaxToMaxMinus1: {us(21.0), us(2.2)},
			MaxMinus1ToMax: {us(34.6), us(2.2)},
			MaxToMin:       {us(27.2), us(5.5)},
			MinToMax:       {us(45.1), us(6.5)},
			MinPlus1ToMin:  {us(25.3), us(1.4)},
			MinToMinPlus1:  {us(35.8), us(2.2)},
		},
		WakeCC1:          LatencySpec{us(0.35), us(0.48)},
		WakeCC6:          LatencySpec{us(27.70), us(3.00)},
		CC6FlushPenalty:  us(7.0),
		CC6FlushFraction: 0.15,
		Power: PowerParams{
			DynW: 12.0, StaticW: 1.0, IdleActivity: 0.13,
			CC1W: 1.6, CC6W: 0.10, WakeW: 1.5,
			UncoreW: 5.0, UncoreDynW: 3.0,
		},
	}

	// I77700 is the Intel i7-7700 desktop part (4 cores, 0.8–3.6 GHz).
	I77700 = &Model{
		Name:         "Intel i7-7700",
		NumCores:     4,
		PerCoreDVFS:  false,
		PStates:      linearPStates(15, 0.8, 3.6, 0.65, 1.12),
		ACPILatency:  10 * sim.Microsecond,
		SettleWindow: 100 * sim.Microsecond,
		ReTransition: map[TransitionClass]LatencySpec{
			MaxToMaxMinus1: {us(21.7), us(3.8)},
			MaxMinus1ToMax: {us(31.3), us(2.1)},
			MaxToMin:       {us(25.9), us(3.1)},
			MinToMax:       {us(50.7), us(6.6)},
			MinPlus1ToMin:  {us(26.3), us(2.9)},
			MinToMinPlus1:  {us(33.8), us(2.3)},
		},
		WakeCC1:          LatencySpec{us(0.40), us(0.49)},
		WakeCC6:          LatencySpec{us(27.56), us(4.15)},
		CC6FlushPenalty:  us(7.5),
		CC6FlushFraction: 0.15,
		Power: PowerParams{
			DynW: 13.0, StaticW: 1.0, IdleActivity: 0.13,
			CC1W: 1.6, CC6W: 0.10, WakeW: 1.5,
			UncoreW: 5.0, UncoreDynW: 3.0,
		},
	}

	// XeonE52620v4 is the Intel Xeon E5-2620 v4 server part
	// (8 cores, 1.2–2.1 GHz, 256 KiB private L2).
	XeonE52620v4 = &Model{
		Name:         "Intel Xeon E5-2620v4",
		NumCores:     8,
		PerCoreDVFS:  true,
		PStates:      linearPStates(10, 1.2, 2.1, 0.70, 1.00),
		ACPILatency:  10 * sim.Microsecond,
		SettleWindow: 600 * sim.Microsecond,
		ReTransition: map[TransitionClass]LatencySpec{
			MaxToMaxMinus1: {us(516.1), us(3.4)},
			MaxMinus1ToMax: {us(516.2), us(3.5)},
			MaxToMin:       {us(520.9), us(5.6)},
			MinToMax:       {us(520.3), us(5.9)},
			MinPlus1ToMin:  {us(517.2), us(4.3)},
			MinToMinPlus1:  {us(517.2), us(4.2)},
		},
		WakeCC1:          LatencySpec{us(0.50), us(0.50)},
		WakeCC6:          LatencySpec{us(27.25), us(4.77)},
		CC6FlushPenalty:  us(7.0),
		CC6FlushFraction: 0.15,
		Power: PowerParams{
			DynW: 8.0, StaticW: 1.1, IdleActivity: 0.10,
			CC1W: 1.3, CC6W: 0.12, WakeW: 1.2,
			UncoreW: 8.0, UncoreDynW: 5.0,
		},
	}

	// XeonGold6134 is the evaluation platform of the paper: 8 cores,
	// per-core DVFS, 16 P-states from 1.2 GHz (P15) to 3.2 GHz (P0),
	// 1 MiB private L2 (hence the larger CC6 flush penalty).
	XeonGold6134 = &Model{
		Name:         "Intel Xeon Gold 6134",
		NumCores:     8,
		PerCoreDVFS:  true,
		PStates:      linearPStates(16, 1.2, 3.2, 0.72, 1.10),
		ACPILatency:  10 * sim.Microsecond,
		SettleWindow: 600 * sim.Microsecond,
		ReTransition: map[TransitionClass]LatencySpec{
			MaxToMaxMinus1: {us(525.7), us(5.7)},
			MaxMinus1ToMax: {us(525.6), us(5.7)},
			MaxToMin:       {us(528.4), us(7.0)},
			MinToMax:       {us(527.3), us(7.1)},
			MinPlus1ToMin:  {us(526.3), us(6.4)},
			MinToMinPlus1:  {us(526.9), us(6.8)},
		},
		WakeCC1:          LatencySpec{us(0.56), us(0.50)},
		WakeCC6:          LatencySpec{us(27.43), us(4.05)},
		CC6FlushPenalty:  us(26.4),
		CC6FlushFraction: 0.15,
		Power: PowerParams{
			DynW: 11.0, StaticW: 1.2, IdleActivity: 0.10,
			CC1W: 1.45, CC6W: 0.15, WakeW: 1.2,
			UncoreW: 8.0, UncoreDynW: 5.0,
		},
	}

	// Models lists all characterised parts in the order of Table 1.
	Models = []*Model{I76700, I77700, XeonE52620v4, XeonGold6134}
)
