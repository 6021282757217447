package baselines

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/nic"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

func ncapRig(keepSleep bool) (*sim.Engine, *cpu.Processor, *NCAP, *SwitchableIdle) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	proc.ForceChipWide = true
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134}, 10*sim.Millisecond)
	var sw *SwitchableIdle
	if !keepSleep {
		sw = NewSwitchableIdle(governor.Disable{})
	}
	n := NewNCAP(eng, proc, stack, 100_000, sw)
	n.Start()
	return eng, proc, n, sw
}

func feed(n *NCAP, pkts int) {
	n.PacketsProcessed(0, kernel.PollingMode, pkts)
}

func TestNCAPBoostsAboveThreshold(t *testing.T) {
	eng, proc, n, _ := ncapRig(true)
	// 200 packets in a 1ms period = 200K RPS > 100K threshold.
	feed(n, 200)
	eng.Run(sim.Time(1100 * sim.Microsecond)) // first monitor tick
	if !n.Boosted() {
		t.Fatal("NCAP did not boost above threshold")
	}
	eng.Run(sim.Time(2 * sim.Millisecond))
	for _, c := range proc.Cores {
		if c.PState() != 0 {
			t.Fatalf("core %d at P%d while boosted, want P0 (chip-wide)", c.ID, c.PState())
		}
	}
	if n.boostCount != 1 {
		t.Fatalf("boost count %d, want 1", n.boostCount)
	}
}

func TestNCAPStaysQuietBelowThreshold(t *testing.T) {
	eng, _, n, _ := ncapRig(true)
	feed(n, 50) // 50K RPS < 100K
	eng.Run(sim.Time(5 * sim.Millisecond))
	if n.Boosted() {
		t.Fatal("NCAP boosted below threshold")
	}
}

func TestNCAPStepsDownGradually(t *testing.T) {
	eng, proc, n, _ := ncapRig(true)
	feed(n, 200)
	eng.Run(sim.Time(1100 * sim.Microsecond))
	if !n.Boosted() {
		t.Fatal("no boost")
	}
	// Traffic stops: NCAP holds P0 for its hold-off, then steps the
	// chip-wide state down one per period rather than jumping.
	hold := sim.Duration(ncapHoldPeriods) * ncapPeriod
	eng.Run(sim.Time(1100*sim.Microsecond + hold))
	if proc.Cores[0].PState() != 0 {
		t.Fatalf("NCAP left P0 during its hold-off (at P%d)", proc.Cores[0].PState())
	}
	eng.Run(sim.Time(1100*sim.Microsecond + hold + 4*sim.Millisecond))
	p := proc.Cores[0].PState()
	if p == 0 || p == proc.Model.MaxP() {
		t.Fatalf("after hold-off + 3 quiet periods at P%d, want gradual descent", p)
	}
	eng.Run(sim.Time(60 * sim.Millisecond))
	if n.Boosted() {
		t.Fatal("NCAP still boosted after long quiet")
	}
}

func TestNCAPDisablesSleepWhileBoosted(t *testing.T) {
	eng, _, n, sw := ncapRig(false)
	if sw.SelectState(0) != cpu.CC0 {
		// Inner policy is Disable{} here, so CC0 either way; check the
		// flag path with a C6 inner policy instead.
		t.Log("inner disable; switching inner for flag test")
	}
	sw2 := NewSwitchableIdle(governor.C6Only{})
	if sw2.SelectState(0) != cpu.CC6 {
		t.Fatal("switchable idle must delegate when not forced")
	}
	sw2.ForceAwake(true)
	if sw2.SelectState(0) != cpu.CC0 {
		t.Fatal("ForceAwake must pin CC0")
	}
	sw2.ForceAwake(false)
	if sw2.SelectState(0) != cpu.CC6 {
		t.Fatal("ForceAwake(false) must restore the inner policy")
	}
	_ = eng
	_ = n
}

func TestNCAPReBoostDuringStepDown(t *testing.T) {
	eng, proc, n, _ := ncapRig(true)
	feed(n, 200)
	eng.Run(sim.Time(1100 * sim.Microsecond))
	eng.Run(sim.Time(3 * sim.Millisecond)) // stepping down
	feed(n, 300)                           // burst returns
	eng.Run(sim.Time(4100 * sim.Microsecond))
	if proc.Cores[0].PendingPState() != 0 && proc.Cores[0].PState() != 0 {
		t.Fatalf("re-boost did not return to P0 (at P%d)", proc.Cores[0].PState())
	}
}

func TestPartiesStepsUpOnViolation(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewParties(eng, proc, sim.Duration(sim.Millisecond))
	p.Start()
	start := p.Current()
	// Feed latencies way over the 1ms SLO.
	for i := 0; i < 200; i++ {
		p.Observe(&workload.Request{Sent: 0, Done: sim.Time(5 * sim.Millisecond)})
	}
	eng.Run(sim.Time(510 * sim.Millisecond))
	if p.Current() >= start {
		t.Fatalf("Parties at P%d after violation, want faster than P%d", p.Current(), start)
	}
	if start-p.Current() < 2 {
		t.Fatal("violation must trigger an aggressive (multi-step) move")
	}
}

func TestPartiesStepsDownOnSlack(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewParties(eng, proc, 10*sim.Millisecond*100) // SLO 1s: huge slack
	p.Start()
	start := p.Current()
	for i := 0; i < 100; i++ {
		p.Observe(&workload.Request{Sent: 0, Done: sim.Time(100 * sim.Microsecond)})
	}
	eng.Run(sim.Time(510 * sim.Millisecond))
	if p.Current() != start+1 {
		t.Fatalf("Parties at P%d with huge slack, want one step down from P%d", p.Current(), start)
	}
}

func TestPartiesDriftsDownWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewParties(eng, proc, sim.Duration(sim.Millisecond))
	p.Start()
	start := p.Current()
	eng.Run(sim.Time(1600 * sim.Millisecond)) // 3 idle intervals
	if p.Current() != start+3 {
		t.Fatalf("idle drift: P%d, want P%d", p.Current(), start+3)
	}
}

func TestPartiesDecisionInterval(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewParties(eng, proc, sim.Duration(sim.Millisecond))
	p.Start()
	start := p.Current()
	eng.Run(sim.Time(2 * sim.Second))
	// With no traffic every decision drifts down one step, and the
	// 6134 starts mid-table (P7 of P0–P15), so the drift counts them.
	if decisions := p.Current() - start; decisions != 4 {
		t.Fatalf("decisions = %d over 2s, want 4 (500ms interval)", decisions)
	}
}

func TestPerRequestRetargetsAndFlaps(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, rng)
	dev := nic.New(nic.DefaultConfig(8), eng, 7)
	var kernels []*kernel.CoreKernel
	k := kernel.NewCoreKernel(0, eng, proc.Cores[0], dev, kernel.Config{}, governor.Disable{})
	kernels = append(kernels, k)
	for i := 1; i < 8; i++ {
		kernels = append(kernels, nil)
	}
	p := NewPerRequest(eng, proc, kernels)
	p.Start()
	k.AddListener(p)
	k.Start()
	// Slow app (10ms per request at P0) so the socket queue builds up;
	// every NAPI event retargets the V/F from the standing depth,
	// issuing back-to-back writes that pay the re-transition latency.
	for i := 0; i < 30; i++ {
		dev.Deliver(&nic.Packet{ID: uint64(i), Flow: 0, Payload: &workload.Request{ID: uint64(i), AppCycles: 32_000_000}})
	}
	eng.Run(sim.Time(20 * sim.Millisecond))
	if p.Requests < 2 {
		t.Fatalf("requests = %d, want several retargets", p.Requests)
	}
	if proc.Cores[0].PState() == proc.Model.MaxP() &&
		proc.Cores[0].PendingPState() == proc.Model.MaxP() {
		t.Fatal("deep queue never raised the frequency target")
	}
}

func TestPegasusJumpsOnViolation(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewPegasus(eng, proc, sim.Duration(sim.Millisecond))
	p.Start()
	start := p.Current()
	for i := 0; i < 300; i++ {
		p.Observe(&workload.Request{Sent: 0, Done: sim.Time(8 * sim.Millisecond)})
	}
	eng.Run(sim.Time(1100 * sim.Millisecond))
	if start-p.Current() < 5 {
		t.Fatalf("Pegasus at P%d after violation from P%d, want a >=5-state jump", p.Current(), start)
	}
}

func TestPegasusDecisionIntervalIsOneSecond(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewPegasus(eng, proc, sim.Duration(sim.Millisecond))
	p.Start()
	start := p.Current()
	for i := 0; i < 100; i++ {
		p.Observe(&workload.Request{Sent: 0, Done: sim.Time(8 * sim.Millisecond)})
	}
	// Before the first 1s tick, nothing may change.
	eng.Run(sim.Time(900 * sim.Millisecond))
	if p.Current() != start {
		t.Fatal("Pegasus acted before its 1s interval")
	}
}

func TestPegasusCreepsDownWithWideSlack(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	p := NewPegasus(eng, proc, 100*sim.Millisecond)
	p.Start()
	start := p.Current()
	for i := 0; i < 100; i++ {
		p.Observe(&workload.Request{Sent: 0, Done: sim.Time(100 * sim.Microsecond)})
	}
	eng.Run(sim.Time(1100 * sim.Millisecond))
	if p.Current() != start+1 {
		t.Fatalf("Pegasus at P%d with huge slack, want one cautious step from P%d", p.Current(), start)
	}
}
