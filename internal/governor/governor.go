// Package governor re-implements the Linux power-management policies the
// paper compares against: the cpufreq governors (performance, powersave,
// userspace, ondemand, conservative), the intel_pstate powersave governor
// (CC0-residency based), and the idle (C-state) governors menu, disable
// and c6only — plus the sampling Stack that runs a cpufreq governor
// periodically per core and that NMAP suspends/resumes per Algorithm 2.
package governor

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
)

// UtilSample is the per-core utilisation observed over one sampling
// window.
type UtilSample struct {
	// Busy is the fraction of the window the core spent executing.
	Busy float64
	// CC0 is the fraction of the window the core was in CC0 (awake),
	// which is what intel_pstate's powersave governor actually samples.
	CC0 float64
}

// CPUGovernor maps a utilisation sample to a desired P-state index for
// one core. Implementations may keep per-core history.
type CPUGovernor interface {
	Name() string
	Decide(coreID int, u UtilSample) int
}

// samplingInterval is the cpufreq sampling period (10ms in the paper).
const samplingInterval = 10 * sim.Millisecond

// Stack runs a CPUGovernor on every core every samplingInterval,
// applying the decisions through the processor's DVFS coordination.
// NMAP's Decision Engine suspends a core's entry while in Network
// Intensive Mode and resumes it on fallback.
type Stack struct {
	eng  *sim.Engine
	proc *cpu.Processor
	gov  CPUGovernor

	suspended []bool
	offline   []bool
	prev      []cpu.Acct
	lastU     []UtilSample
}

// NewStack builds the sampling stack.
func NewStack(eng *sim.Engine, proc *cpu.Processor, gov CPUGovernor) *Stack {
	return &Stack{
		eng:       eng,
		proc:      proc,
		gov:       gov,
		suspended: make([]bool, len(proc.Cores)),
		offline:   make([]bool, len(proc.Cores)),
		prev:      make([]cpu.Acct, len(proc.Cores)),
		lastU:     make([]UtilSample, len(proc.Cores)),
	}
}

// Start begins periodic sampling. The initial decision is issued
// immediately with zero utilisation so powersave-style governors settle
// at their floor right away.
func (s *Stack) Start() {
	for i, c := range s.proc.Cores {
		s.prev[i] = c.Snapshot()
		if !s.suspended[i] {
			s.proc.Request(i, s.gov.Decide(i, UtilSample{}))
		}
	}
	s.eng.Ticker(samplingInterval, s.tick)
}

func (s *Stack) tick() {
	for i := range s.proc.Cores {
		if s.offline[i] {
			continue // a dead core is neither sampled nor driven
		}
		u := s.sample(i)
		if s.suspended[i] {
			continue
		}
		s.proc.Request(i, s.gov.Decide(i, u))
	}
}

// sample computes the utilisation of core i since the previous tick and
// advances the per-core snapshot. Windows shorter than a quarter of the
// sampling interval are statistically meaningless (e.g. a Resume issued
// in the same instant as a tick), so the previous sample is reused.
func (s *Stack) sample(i int) UtilSample {
	cur := s.proc.Cores[i].Snapshot()
	prevAcct := s.prev[i]
	dt := float64(cur.At - prevAcct.At)
	if dt < float64(samplingInterval)/4 {
		return s.lastU[i]
	}
	s.prev[i] = cur
	u := UtilSample{
		Busy: float64(cur.BusyNs-prevAcct.BusyNs) / dt,
		CC0:  float64(cur.CC0Ns-prevAcct.CC0Ns) / dt,
	}
	s.lastU[i] = u
	return u
}

// Suspend disables the governor for core i (NMAP Network Intensive
// Mode: "disable ondemand governor").
func (s *Stack) Suspend(i int) { s.suspended[i] = true }

// Resume re-enables the governor for core i and immediately issues a
// decision from the utilisation accrued since the last tick (NMAP:
// "enforce P state based on CPU util; enable ondemand governor").
func (s *Stack) Resume(i int) {
	if !s.suspended[i] {
		return
	}
	s.suspended[i] = false
	u := s.sample(i)
	s.proc.Request(i, s.gov.Decide(i, u))
}

// CoreOffline stops the stack from sampling or driving core i (the
// core hard-failed). Its suspension state is preserved for recovery.
func (s *Stack) CoreOffline(i int) { s.offline[i] = true }

// CoreOnline resumes governing a recovered core: the utilisation
// snapshot restarts from the recovery instant (the offline window must
// not read as idleness) and, unless suspended, a decision is issued
// immediately.
func (s *Stack) CoreOnline(i int) {
	if !s.offline[i] {
		return
	}
	s.offline[i] = false
	s.refresh(i)
}

// CoreAdopted restarts core i's mode decision with fresh counters: the
// adoptive core just inherited a dead sibling's flows, so utilisation
// history from before the failover no longer predicts its load.
func (s *Stack) CoreAdopted(i int) {
	if s.offline[i] {
		return
	}
	s.refresh(i)
}

// refresh rebases core i's utilisation window to now and issues an
// immediate decision from a clean sample unless the core is suspended.
func (s *Stack) refresh(i int) {
	s.prev[i] = s.proc.Cores[i].Snapshot()
	s.lastU[i] = UtilSample{}
	if !s.suspended[i] {
		s.proc.Request(i, s.gov.Decide(i, UtilSample{}))
	}
}
