// Package baselines re-implements the comparison systems of §6.3:
//
//   - NCAP (Alian et al., HPCA'17): a network-driven, chip-wide policy.
//     The paper compares against a software re-implementation with a
//     periodic monitor; ours follows that: every Period it computes the
//     NIC-wide packet rate, maximises the V/F of ALL cores when the rate
//     exceeds a threshold (disabling sleep states unless the NCAP-menu
//     variant is selected), and gradually steps the chip-wide V/F back
//     down as the rate subsides.
//   - Parties (Chen et al., ASPLOS'19): a long-term feedback controller
//     that adjusts the V/F state every 500ms from the measured tail
//     latency slack. Pegasus (Lo et al., ISCA'14) runs the same
//     feedback loop every second with a harsher step rule.
//   - PerRequest: a Rubik/µDPM-style per-request DVFS policy used for
//     the §5.1 ablation — it retargets the V/F on every poll batch and
//     therefore runs head-first into the re-transition latency.
package baselines

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

// SwitchableIdle wraps an idle policy so NCAP can disable sleep states
// while boosted (the original NCAP behaviour) and restore them after.
type SwitchableIdle struct {
	inner      kernel.IdlePolicy
	forceAwake bool
}

// NewSwitchableIdle wraps inner.
func NewSwitchableIdle(inner kernel.IdlePolicy) *SwitchableIdle {
	return &SwitchableIdle{inner: inner}
}

// Name implements kernel.IdlePolicy.
func (s *SwitchableIdle) Name() string { return s.inner.Name() + "+switchable" }

// SelectState implements kernel.IdlePolicy.
func (s *SwitchableIdle) SelectState(coreID int) cpu.CState {
	if s.forceAwake {
		return cpu.CC0
	}
	return s.inner.SelectState(coreID)
}

// IdleEnded implements kernel.IdlePolicy.
func (s *SwitchableIdle) IdleEnded(coreID int, d sim.Duration) {
	s.inner.IdleEnded(coreID, d)
}

// ForceAwake switches sleep states off (true) or back to the inner
// policy (false).
func (s *SwitchableIdle) ForceAwake(v bool) { s.forceAwake = v }

// NCAP is the software re-implementation of the NCAP baseline. It
// counts packets as a NAPI listener, so server.AttachPolicy subscribes
// it to every core kernel. The processor should run with chip-wide DVFS
// coordination (Config.ForceChipWide), matching NCAP's chip-wide design.
type NCAP struct {
	eng   *sim.Engine
	proc  *cpu.Processor
	stack *governor.Stack
	// thresholdRPS is the NIC-wide packet rate that triggers the boost,
	// tuned per §6.3 to satisfy the SLO at each application's high load.
	thresholdRPS float64
	// idle, if non-nil, is forced awake while boosted (plain NCAP); nil
	// for the NCAP-menu variant.
	idle *SwitchableIdle

	pkts    float64
	boosted bool
	quiet   int
	stepP   int
	// boostCount counts boost episodes (for ablation reporting).
	boostCount int64
}

// ncapPeriod is the software monitoring period ("slightly longer than
// the hardware implementation").
const ncapPeriod = sim.Millisecond

// ncapHoldPeriods keeps the package at P0 for this many quiet monitor
// periods before the gradual step-down begins; the software NCAP is
// tuned conservatively so the SLO holds at each application's high load
// (§6.3), which costs energy relative to NMAP's per-core fallback.
const ncapHoldPeriods = 8

// NewNCAP builds the baseline over a fallback governor stack (ondemand).
// idle, if non-nil, is forced awake while boosted (plain NCAP); pass nil
// for the NCAP-menu variant.
func NewNCAP(eng *sim.Engine, proc *cpu.Processor, stack *governor.Stack, thresholdRPS float64, idle *SwitchableIdle) *NCAP {
	return &NCAP{eng: eng, proc: proc, stack: stack, thresholdRPS: thresholdRPS, idle: idle}
}

// Start launches the fallback stack and the periodic monitor.
func (n *NCAP) Start() {
	n.stack.Start()
	n.eng.Ticker(ncapPeriod, n.tick)
}

// OnNAPI implements kernel.NAPIListener: NCAP monitors the total
// network load at the NIC, not per-core state.
func (n *NCAP) OnNAPI(e kernel.NAPIEvent) {
	if e.Kind == kernel.PacketsProcessed {
		n.pkts += float64(e.N)
	}
}

func (n *NCAP) tick() {
	rate := n.pkts / ncapPeriod.Seconds()
	n.pkts = 0
	if rate > n.thresholdRPS {
		if !n.boosted {
			n.boosted = true
			n.boostCount++
			for i := range n.proc.Cores {
				n.stack.Suspend(i)
			}
			if n.idle != nil {
				n.idle.ForceAwake(true)
			}
		}
		n.stepP = 0
		n.quiet = 0
		n.proc.RequestAll(0)
		return
	}
	if !n.boosted {
		return
	}
	// Below threshold: hold P0 for the tuned hold-off, then gradually
	// decrease the chip-wide V/F; hand the cores back to the
	// utilisation governor at the bottom.
	n.quiet++
	if n.quiet <= ncapHoldPeriods {
		return
	}
	n.stepP++
	if n.stepP >= n.proc.Model.MaxP() {
		n.boosted = false
		if n.idle != nil {
			n.idle.ForceAwake(false)
		}
		for i := range n.proc.Cores {
			n.stack.Resume(i)
		}
		return
	}
	n.proc.RequestAll(n.stepP)
}
