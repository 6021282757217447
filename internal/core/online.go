package core

import (
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

// This file implements the two extensions the paper names as future
// work:
//
//   - §4.2: "We leave further exploration of on-line profiling
//     techniques as our future work." — OnlineTuner re-derives the
//     NMAP thresholds continuously from the live NAPI event stream, so
//     the governor adapts when the running application (and therefore
//     its polling signature) changes, without an offline profiling run.
//   - §8: "We leave it as future work to consider the sophisticated use
//     of sleep state integrated with DVFS." — SleepControl integration:
//     while a core is in Network Intensive Mode, deep sleep is disabled
//     (a mid-burst CC6 wake costs ~27µs + cache refill); in CPU
//     Utilisation Mode the idle policy is restored.

// SetThresholds replaces the monitor thresholds at runtime (used by the
// online tuner).
func (n *NMAP) SetThresholds(th Thresholds) { n.th = th }

// CurrentThresholds returns the thresholds in use.
func (n *NMAP) CurrentThresholds() Thresholds { return n.th }

// OnlineTuner wraps a continuously running Profiler and re-derives the
// NMAP thresholds after every 4 completed bursts. Attach it as a NAPI
// listener alongside the NMAP it tunes.
type OnlineTuner struct {
	nmap *NMAP
	prof *Profiler
	// adjustEvery is the number of completed bursts between threshold
	// updates.
	adjustEvery int

	lastBursts int
	// updates counts threshold adjustments applied.
	updates int64
}

// tunerBlend is the EWMA weight of freshly derived thresholds against
// the current ones, damping burst-to-burst noise.
const tunerBlend = 0.5

// NewOnlineTuner builds a tuner for the given NMAP instance.
func NewOnlineTuner(eng *sim.Engine, n *NMAP) *OnlineTuner {
	return &OnlineTuner{nmap: n, prof: NewProfiler(eng), adjustEvery: 4}
}

// OnNAPI implements kernel.NAPIListener: feed the profiler, and on an
// interrupt that closed the adjustEvery-th burst since the last update,
// re-derive the thresholds.
func (t *OnlineTuner) OnNAPI(e kernel.NAPIEvent) {
	t.prof.OnNAPI(e)
	if e.Kind == kernel.InterruptArrived && t.prof.Bursts() >= t.lastBursts+t.adjustEvery {
		t.lastBursts = t.prof.Bursts()
		t.apply()
	}
}

func (t *OnlineTuner) apply() {
	fresh := t.prof.Peek()
	if fresh == (Thresholds{}) {
		return
	}
	cur := t.nmap.CurrentThresholds()
	const b = tunerBlend
	t.nmap.SetThresholds(Thresholds{
		NITh: float64((1-b)*cur.NITh) + float64(b*fresh.NITh),
		CUTh: float64((1-b)*cur.CUTh) + float64(b*fresh.CUTh),
	})
	t.updates++
}

// SleepControl lets an NMAP flavour force a core's sleep states off
// during Network Intensive Mode; baselines.SwitchableIdle implements it.
type SleepControl interface {
	ForceAwake(bool)
}

// IntegrateSleep arms the §8 future-work extension on an NMAP instance:
// entering Network Intensive Mode on ANY core forces the idle policy
// awake (shallow); when every core is back in CPU Utilisation Mode the
// inner idle policy is restored.
func (n *NMAP) IntegrateSleep(ctl SleepControl) { n.sleep = ctl }

// syncSleep tells the integrated sleep control, if any, whether any
// core is in Network Intensive Mode.
func (n *NMAP) syncSleep() {
	if n.sleep == nil {
		return
	}
	intense := false
	for _, c := range n.cores {
		intense = intense || c.mode == NetworkIntensiveMode
	}
	n.sleep.ForceAwake(intense)
}
