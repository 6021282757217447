package governor

import (
	"testing"

	"nmapsim/internal/audit"
	"nmapsim/internal/cpu"
	"nmapsim/internal/faults"
	"nmapsim/internal/kernel"
	"nmapsim/internal/nic"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Regression: a Resume issued at the same instant as (or just after) a
// stack tick sees a zero-length sampling window. The stack must reuse
// the last full-window utilisation instead of reading 0% and dropping a
// saturated core to Pmin mid-burst — the bug caused NMAP to flap P0→P15
// with 520µs re-transitions inside every burst.
func TestResumeRightAfterTickReusesLastUtil(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	st := NewStack(eng, proc, Ondemand{Model: cpu.XeonGold6134})
	st.Start()
	st.Suspend(0)
	proc.Request(0, 0) // NMAP-style boost

	// Keep core 0 fully busy.
	var loop func()
	loop = func() {
		if eng.Now() < sim.Time(100*sim.Millisecond) {
			proc.Cores[0].StartExec(3200*500, loop)
		}
	}
	loop()

	// Resume exactly at a tick boundary: window length zero.
	eng.At(sim.Time(30*sim.Millisecond), func() {
		st.Resume(0)
		// The busy core must stay at (or be headed to) P0 — not P15.
		if p := proc.Cores[0].PendingPState(); p > 2 {
			t.Errorf("Resume at tick dropped a saturated core to P%d", p)
		}
	})
	eng.Run(sim.Time(100 * sim.Millisecond))
	if proc.Cores[0].PState() != 0 {
		t.Fatalf("busy core ended at P%d, want P0", proc.Cores[0].PState())
	}
}

// The complementary case: a Resume long after the last tick gets a real
// window and decides from it.
func TestResumeMidWindowSamplesFreshUtil(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	st := NewStack(eng, proc, Ondemand{Model: cpu.XeonGold6134})
	st.Start()
	st.Suspend(0)
	proc.Request(0, 0)
	// Core 0 idle the whole time: resume mid-window must drop it.
	eng.At(sim.Time(35*sim.Millisecond), func() { st.Resume(0) })
	eng.Run(sim.Time(100 * sim.Millisecond))
	if proc.Cores[0].PState() != 15 {
		t.Fatalf("idle core ended at P%d after mid-window resume, want P15", proc.Cores[0].PState())
	}
}

// A full governor stack over sleeping cores under interrupt loss: cores
// drop to CC6 between packet waves, some wake-up interrupts are lost in
// delivery (the ring keeps the packets; a later interrupt drains them),
// and the whole run must stay legal under the invariant auditor — no
// wake from a state never entered, C-state residencies summing to the
// clock, every packet conserved. Regression scope: the kernel's
// sleeping/waking handshake used to be easy to break precisely when an
// expected interrupt never arrived.
func TestStackLegalUnderLostIRQsWithCC6(t *testing.T) {
	m := cpu.XeonGold6134
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(m, eng, sim.NewRNG(2))
	aud := audit.New(eng, m.NumCores, m.MaxP(), m.MaxPowerW())
	proc.SetAuditor(aud)
	dev := nic.New(nic.DefaultConfig(m.NumCores), eng, 7)
	dev.SetAuditor(aud)
	inj := faults.New(faults.Config{IRQLossProb: 0.35}, sim.NewRNG(9))
	dev.SetInjector(inj)

	var completed uint64
	kernels := make([]*kernel.CoreKernel, 0, m.NumCores)
	for i, c := range proc.Cores {
		k := kernel.NewCoreKernel(i, eng, c, dev, 0, C6Only{})
		k.SetAuditor(aud)
		k.OnAppComplete = func(r *workload.Request) {
			// Close the audited loop the way the server does: transmit
			// one response segment and count its arrival.
			p := dev.GetPacket()
			p.ID, p.Flow, p.Payload = r.ID, r.Flow, r
			dev.Transmit(dev.QueueFor(r.Flow), p, 1, func(p *nic.Packet) {
				aud.Count(audit.TxDone, 1)
				aud.Count(audit.RespSched, 1)
				aud.Count(audit.RespArrived, 1)
				dev.PutPacket(p)
				completed++
			})
		}
		kernels = append(kernels, k)
		k.Start()
	}
	st := NewStack(eng, proc, Ondemand{Model: m})
	st.Start()

	// Five widely spaced waves: every gap is long enough for the menu-free
	// c6only policy to drop each core into CC6 before the next wave's
	// interrupts (possibly lost) arrive.
	var issued uint64
	for wave := 0; wave < 5; wave++ {
		at := sim.Time(wave) * sim.Time(5*sim.Millisecond)
		eng.At(at, func() {
			for i := 0; i < 64; i++ {
				aud.Count(audit.ClientSend, 1)
				p := dev.GetPacket()
				p.ID, p.Flow = issued, issued
				p.Payload = &workload.Request{ID: issued, Flow: issued, AppCycles: 3200 * 2}
				issued++
				dev.Deliver(p)
			}
		})
	}
	eng.Run(sim.Time(100 * sim.Millisecond))

	if inj.Stats().IRQsLost == 0 {
		t.Fatal("no interrupts were lost; the scenario is vacuous")
	}
	if proc.TotalCC6Entries() == 0 {
		t.Fatal("no core ever reached CC6; the scenario is vacuous")
	}
	final := audit.Final{
		Issued:         issued,
		Completed:      completed,
		InFlight:       issued - completed, // stranded copies are still live
		PackageEnergyJ: proc.PackageEnergyJ(),
		FaultWireDrops: inj.Stats().WireDrops,
		NICDrops:       dev.TotalDrops(),
	}
	for q := 0; q < m.NumCores; q++ {
		final.RingResidual += uint64(dev.QueueLen(q))
		final.TxPendingResidual += uint64(dev.TxPending(q))
	}
	for _, k := range kernels {
		c := k.Counters()
		final.KernelCompleted += c.Completed
		final.KernelSockDrops += c.SockDrops
		final.SockQResidual += uint64(k.SockQLen())
		final.AppResidual += uint64(k.AppInFlight())
		final.PollResidual += uint64(k.PollInFlight())
	}
	for _, c := range proc.Cores {
		a := c.Snapshot()
		final.CoreBusyNs = append(final.CoreBusyNs, a.BusyNs)
		final.CoreCC0Ns = append(final.CoreCC0Ns, a.CC0Ns)
		final.CoreCC6 = append(final.CoreCC6, a.CC6Entries)
		final.CoreTrans = append(final.CoreTrans, c.Transitions())
		final.CoreEnergyJ = append(final.CoreEnergyJ, a.EnergyJ)
	}
	// A wave whose final interrupts are all lost legitimately strands its
	// packets in the ring (nothing re-raises the IRQ until a later
	// arrival) — they must show up as ring residual, never vanish.
	residual := final.RingResidual + final.SockQResidual + final.AppResidual + final.PollResidual
	if completed+residual != issued {
		t.Fatalf("conservation broken: completed %d + residual %d != issued %d", completed, residual, issued)
	}
	if completed < issued/2 {
		t.Fatalf("only %d of %d packets completed; lost IRQs starved the datapath", completed, issued)
	}
	if rep := aud.Finalize(final); rep.Failed() {
		t.Fatalf("lost IRQs over CC6 sleeps broke invariants:\n%s", rep)
	}
}
