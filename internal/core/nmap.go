// Package core implements the paper's contribution: NMAP, Network packet
// processing Mode-Aware Power management.
//
// NMAP piggybacks on the NAPI mode transitions the kernel model exposes:
//
//   - Algorithm 1 (Mode Transition Monitor): per core, count packets
//     processed in polling and interrupt mode; when the polling-mode
//     count within one interrupt window exceeds NI_TH, notify the
//     Decision Engine immediately; flush the accumulated counters to the
//     engine every timer interval.
//   - Algorithm 2 (Decision Engine): on a notification, enter Network
//     Intensive Mode — disable the CPU-utilisation governor for that
//     core and maximise its V/F. Periodically, when in Network Intensive
//     Mode and the polling-to-interrupt ratio falls below CU_TH, fall
//     back to CPU Utilisation Mode — re-enable the governor and let it
//     enforce a utilisation-based state.
//
// Two flavours are provided, matching the paper: NMAP (the ratio-based
// monitor above) and NMAPSimpl (§4.1), which enters Network Intensive
// Mode when ksoftirqd wakes and falls back when ksoftirqd sleeps.
// The offline threshold profiler of §4.2 is in profile.go.
package core

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

// Mode is the per-core power-management mode of Algorithm 2.
type Mode int

const (
	// CPUUtilMode delegates the core's P-state to the fallback
	// CPU-utilisation governor (ondemand).
	CPUUtilMode Mode = iota
	// NetworkIntensiveMode pins the core at P0.
	NetworkIntensiveMode
)

// String names the mode.
func (m Mode) String() string {
	if m == NetworkIntensiveMode {
		return "network-intensive"
	}
	return "cpu-util"
}

// Thresholds carries the two profiled thresholds of §4.2.
type Thresholds struct {
	// NITh is the Network-Intensive threshold: polling-mode packets
	// observed within one interrupt window that trigger the boost.
	NITh float64
	// CUTh is the CPU-Utilisation threshold: when the periodic
	// polling-to-interrupt packet ratio drops below it, fall back.
	CUTh float64
}

// decisionInterval is the Decision Engine timer (10ms in the
// evaluation).
const decisionInterval = 10 * sim.Millisecond

// DefaultThresholds returns thresholds that work for the memcached
// profile; experiments normally obtain them via the Profiler.
func DefaultThresholds() Thresholds { return Thresholds{NITh: 32, CUTh: 0.25} }

type nmapCore struct {
	mode      Mode
	pollCnt   float64 // Algorithm 1 accumulators (reset every timer interval)
	intrCnt   float64
	boosts    int64
	fallbacks int64
}

// NMAP is the ratio-based flavour (§4.2). It implements
// kernel.NAPIListener, so server.AttachPolicy subscribes it to every
// core kernel.
type NMAP struct {
	eng   *sim.Engine
	proc  *cpu.Processor
	stack *governor.Stack
	th    Thresholds

	cores []*nmapCore

	// sleep, when set by IntegrateSleep, is told after every mode
	// transition whether any core is in Network Intensive Mode.
	sleep SleepControl
}

// NewNMAP builds the governor. stack wraps the fallback CPU-utilisation
// governor (ondemand in the paper).
func NewNMAP(eng *sim.Engine, proc *cpu.Processor, stack *governor.Stack, th Thresholds) *NMAP {
	n := &NMAP{eng: eng, proc: proc, stack: stack, th: th}
	for range proc.Cores {
		n.cores = append(n.cores, &nmapCore{mode: CPUUtilMode})
	}
	return n
}

// Start launches the fallback governor stack and the Decision Engine
// timer.
func (n *NMAP) Start() {
	n.stack.Start()
	n.eng.Ticker(decisionInterval, n.periodic)
}

// OnNAPI implements kernel.NAPIListener with Algorithm 1 lines 4-8,
// which need only the packet counts: accumulate the mode counters and
// notify the Decision Engine as soon as the polling-mode packets
// accumulated in the current timer window exceed NI_TH — "the increase
// in the polling ratio means the increase in the number of pending
// packets".
func (n *NMAP) OnNAPI(e kernel.NAPIEvent) {
	if e.Kind != kernel.PacketsProcessed {
		return
	}
	c := n.cores[e.Core]
	if e.Mode == kernel.PollingMode {
		c.pollCnt += float64(e.N)
		if c.pollCnt > n.th.NITh {
			n.notify(e.Core)
		}
	} else {
		c.intrCnt += float64(e.N)
	}
}

// notify is Algorithm 2 lines 2-5: enter Network Intensive Mode.
func (n *NMAP) notify(coreID int) {
	c := n.cores[coreID]
	if c.mode == NetworkIntensiveMode {
		return
	}
	c.mode = NetworkIntensiveMode
	c.boosts++
	n.stack.Suspend(coreID)
	n.proc.Request(coreID, 0)
	n.syncSleep()
}

// periodic is Algorithm 2 lines 6-13 plus Algorithm 1 lines 9-12: flush
// the counters and fall back when the polling-to-interrupt ratio drops
// below CU_TH.
func (n *NMAP) periodic() {
	for i, c := range n.cores {
		poll, intr := c.pollCnt, c.intrCnt
		c.pollCnt, c.intrCnt = 0, 0
		if c.mode != NetworkIntensiveMode {
			continue
		}
		ratio := poll
		if intr > 0 {
			ratio = poll / intr
		} else if poll == 0 {
			ratio = 0
		} else {
			// Packets flowed in polling mode only: maximally intense.
			continue
		}
		if ratio < n.th.CUTh {
			c.mode = CPUUtilMode
			c.fallbacks++
			n.stack.Resume(i)
			n.syncSleep()
		}
	}
}

// CoreOffline implements the server's failure-aware protocol: the dead
// core's mode machine resets to CPU Utilisation Mode (clearing any
// Network Intensive pin, so the suspension does not outlive the core)
// and the fallback stack stops sampling it. Counters are flushed — a
// corpse has no NAPI history.
func (n *NMAP) CoreOffline(coreID int) {
	c := n.cores[coreID]
	c.pollCnt, c.intrCnt = 0, 0
	if c.mode == NetworkIntensiveMode {
		c.mode = CPUUtilMode
		n.stack.Resume(coreID)
	}
	n.stack.CoreOffline(coreID)
}

// CoreOnline restarts the mode decision on a recovered core from a
// clean slate: CPU Utilisation Mode, zero counters, and the fallback
// stack sampling from the recovery instant.
func (n *NMAP) CoreOnline(coreID int) {
	c := n.cores[coreID]
	c.pollCnt, c.intrCnt = 0, 0
	c.mode = CPUUtilMode
	n.stack.CoreOnline(coreID)
}

// CoreAdopted flushes the adoptive core's NAPI counters: it just
// inherited a dead sibling's flows, so its interrupt/poll history no
// longer predicts its load. The current mode is kept — a Network
// Intensive pin is exactly right while absorbing a failover — and the
// fallback stack rebases its utilisation window.
func (n *NMAP) CoreAdopted(coreID int) {
	c := n.cores[coreID]
	c.pollCnt, c.intrCnt = 0, 0
	n.stack.CoreAdopted(coreID)
}

// NMAPSimpl is the simplified flavour (§4.1): it boosts when ksoftirqd
// wakes and falls back when ksoftirqd sleeps, requiring no thresholds or
// profiling.
type NMAPSimpl struct {
	proc  *cpu.Processor
	stack *governor.Stack

	cores []*nmapCore
}

// NewNMAPSimpl builds the simplified governor over the fallback stack.
func NewNMAPSimpl(proc *cpu.Processor, stack *governor.Stack) *NMAPSimpl {
	n := &NMAPSimpl{proc: proc, stack: stack}
	for range proc.Cores {
		n.cores = append(n.cores, &nmapCore{mode: CPUUtilMode})
	}
	return n
}

// Start launches the fallback governor stack.
func (n *NMAPSimpl) Start() { n.stack.Start() }

// OnNAPI implements kernel.NAPIListener: boost when ksoftirqd wakes,
// fall back when it sleeps.
func (n *NMAPSimpl) OnNAPI(e kernel.NAPIEvent) {
	c := n.cores[e.Core]
	switch {
	case e.Kind == kernel.KsoftirqdWake && c.mode != NetworkIntensiveMode:
		c.mode = NetworkIntensiveMode
		c.boosts++
		n.stack.Suspend(e.Core)
		n.proc.Request(e.Core, 0)
	case e.Kind == kernel.KsoftirqdSleep && c.mode == NetworkIntensiveMode:
		c.mode = CPUUtilMode
		c.fallbacks++
		n.stack.Resume(e.Core)
	}
}

// CoreOffline implements the server's failure-aware protocol (see
// NMAP.CoreOffline). The kernel emits a KsoftirqdSleep event before the
// crash settles when ksoftirqd owned the NAPI context, so the mode
// machine is usually already back in CPU Utilisation Mode here.
func (n *NMAPSimpl) CoreOffline(coreID int) {
	c := n.cores[coreID]
	if c.mode == NetworkIntensiveMode {
		c.mode = CPUUtilMode
		n.stack.Resume(coreID)
	}
	n.stack.CoreOffline(coreID)
}

// CoreOnline restarts a recovered core in CPU Utilisation Mode.
func (n *NMAPSimpl) CoreOnline(coreID int) {
	n.cores[coreID].mode = CPUUtilMode
	n.stack.CoreOnline(coreID)
}

// CoreAdopted rebases the adoptive core's utilisation window.
func (n *NMAPSimpl) CoreAdopted(coreID int) {
	n.stack.CoreAdopted(coreID)
}
