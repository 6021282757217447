package core

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

func newNMAPRig(th Thresholds) (*sim.Engine, *cpu.Processor, *NMAP) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134})
	n := NewNMAP(eng, proc, stack, th)
	n.Start()
	return eng, proc, n
}

func TestNMAPBoostsWhenPollingExceedsNITh(t *testing.T) {
	eng, proc, n := newNMAPRig(Thresholds{NITh: 32, CUTh: 0.25})
	// Simulate a burst on core 2: one interrupt, then polling batches.
	interrupt(n, 2)
	packets(n, 2, kernel.InterruptMode, 64)
	if n.cores[2].mode != CPUUtilMode {
		t.Fatal("interrupt-mode packets must not boost")
	}
	packets(n, 2, kernel.PollingMode, 20)
	if n.cores[2].mode != CPUUtilMode {
		t.Fatal("20 polling packets under NI_TH=32 must not boost")
	}
	packets(n, 2, kernel.PollingMode, 20)
	if n.cores[2].mode != NetworkIntensiveMode {
		t.Fatal("40 polling packets above NI_TH must boost")
	}
	eng.Run(sim.Time(20 * sim.Microsecond))
	if proc.Cores[2].PState() != 0 {
		t.Fatalf("boosted core at P%d, want P0", proc.Cores[2].PState())
	}
	if proc.Cores[0].PState() != 15 {
		t.Fatalf("unrelated core at P%d, want P15 (per-core decision)", proc.Cores[0].PState())
	}
	if n.cores[2].boosts != 1 {
		t.Fatalf("boosts=%d, want 1", n.cores[2].boosts)
	}
}

func TestNMAPTimerWindowResetsPollCount(t *testing.T) {
	eng, _, n := newNMAPRig(Thresholds{NITh: 32, CUTh: 0.25})
	// Polling packets spread thinly across timer windows never
	// accumulate past NI_TH: each 10ms flush resets the counter.
	for i := 0; i < 10; i++ {
		packets(n, 0, kernel.PollingMode, 10)
		eng.Run(sim.Time((11 + 10*i)) * sim.Time(sim.Millisecond))
	}
	if n.cores[0].mode != CPUUtilMode {
		t.Fatal("timer window did not reset the poll counter; spurious boost")
	}
	// The same volume inside one window does boost.
	for i := 0; i < 10; i++ {
		packets(n, 0, kernel.PollingMode, 10)
	}
	if n.cores[0].mode != NetworkIntensiveMode {
		t.Fatal("poll accumulation within one window failed to boost")
	}
}

func TestNMAPFallsBackWhenRatioDrops(t *testing.T) {
	eng, _, n := newNMAPRig(Thresholds{NITh: 10, CUTh: 0.5})
	interrupt(n, 0)
	packets(n, 0, kernel.PollingMode, 20) // boost
	if n.cores[0].mode != NetworkIntensiveMode {
		t.Fatal("no boost")
	}
	// Next interval: plenty of interrupt-mode traffic, little polling.
	eng.Run(sim.Time(11 * sim.Millisecond)) // first periodic flush
	interrupt(n, 0)
	packets(n, 0, kernel.InterruptMode, 100)
	packets(n, 0, kernel.PollingMode, 10) // ratio 0.1 < 0.5
	eng.Run(sim.Time(21 * sim.Millisecond))
	if n.cores[0].mode != CPUUtilMode {
		t.Fatal("NMAP did not fall back despite low polling ratio")
	}
	if n.cores[0].fallbacks != 1 {
		t.Fatalf("fallbacks=%d, want 1", n.cores[0].fallbacks)
	}
}

func TestNMAPStaysBoostedWhileRatioHigh(t *testing.T) {
	eng, proc, n := newNMAPRig(Thresholds{NITh: 10, CUTh: 0.5})
	interrupt(n, 0)
	packets(n, 0, kernel.PollingMode, 20)
	// Sustained polling-heavy traffic across several intervals.
	for w := 0; w < 5; w++ {
		eng.Run(sim.Time((11 + 10*sim.Time(w)) * sim.Time(sim.Millisecond)))
		interrupt(n, 0)
		packets(n, 0, kernel.InterruptMode, 10)
		packets(n, 0, kernel.PollingMode, 100)
	}
	if n.cores[0].mode != NetworkIntensiveMode {
		t.Fatal("NMAP fell back during sustained polling")
	}
	if proc.Cores[0].PState() != 0 {
		t.Fatalf("core at P%d during sustained polling, want P0", proc.Cores[0].PState())
	}
}

func TestNMAPIdleFallsBackToZeroTraffic(t *testing.T) {
	eng, proc, n := newNMAPRig(Thresholds{NITh: 10, CUTh: 0.5})
	interrupt(n, 0)
	packets(n, 0, kernel.PollingMode, 20)
	// No traffic at all afterwards: ratio 0 → fallback; ondemand then
	// drops the idle core to P15.
	eng.Run(sim.Time(50 * sim.Millisecond))
	if n.cores[0].mode != CPUUtilMode {
		t.Fatal("NMAP stayed boosted with zero traffic")
	}
	if proc.Cores[0].PState() != 15 {
		t.Fatalf("idle core at P%d after fallback, want P15", proc.Cores[0].PState())
	}
}

func TestNMAPPollOnlyTrafficStaysBoosted(t *testing.T) {
	eng, _, n := newNMAPRig(Thresholds{NITh: 10, CUTh: 0.5})
	interrupt(n, 0)
	packets(n, 0, kernel.PollingMode, 20)
	eng.Run(sim.Time(11 * sim.Millisecond))
	// Interval with polling but zero interrupt-mode packets (ksoftirqd
	// churning through a standing queue): must NOT fall back.
	packets(n, 0, kernel.PollingMode, 500)
	eng.Run(sim.Time(21 * sim.Millisecond))
	if n.cores[0].mode != CPUUtilMode {
		// The first flush (at 10ms) consumed the boost-window counters;
		// the second flush sees poll=500, intr=0 → stays boosted.
	}
	eng.Run(sim.Time(22 * sim.Millisecond))
	if n.cores[0].mode != NetworkIntensiveMode && n.cores[0].fallbacks > 1 {
		t.Fatal("poll-only interval caused fallback")
	}
}

func TestNMAPModeChangeCallback(t *testing.T) {
	eng, _, n := newNMAPRig(Thresholds{NITh: 5, CUTh: 0.5})
	interrupt(n, 0)
	packets(n, 0, kernel.PollingMode, 10)
	if n.cores[0].mode != NetworkIntensiveMode || n.cores[0].boosts != 1 || n.cores[0].fallbacks != 0 {
		t.Fatalf("after NI_TH: mode=%v boosts=%d fallbacks=%d, want network-intensive 1 0",
			n.cores[0].mode, n.cores[0].boosts, n.cores[0].fallbacks)
	}
	eng.Run(sim.Time(50 * sim.Millisecond))
	if n.cores[0].mode != CPUUtilMode || n.cores[0].boosts != 1 || n.cores[0].fallbacks != 1 {
		t.Fatalf("after idle intervals: mode=%v boosts=%d fallbacks=%d, want cpu-util 1 1",
			n.cores[0].mode, n.cores[0].boosts, n.cores[0].fallbacks)
	}
}

func TestNMAPSimplFollowsKsoftirqd(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134})
	n := NewNMAPSimpl(proc, stack)
	n.Start()
	ksWake(n, 3)
	if n.cores[3].mode != NetworkIntensiveMode {
		t.Fatal("ksoftirqd wake must boost")
	}
	eng.Run(sim.Time(20 * sim.Microsecond))
	if proc.Cores[3].PState() != 0 {
		t.Fatalf("core at P%d after ksoftirqd wake, want P0", proc.Cores[3].PState())
	}
	ksSleep(n, 3)
	if n.cores[3].mode != CPUUtilMode {
		t.Fatal("ksoftirqd sleep must fall back")
	}
	if n.cores[3].boosts != 1 {
		t.Fatalf("boosts=%d", n.cores[3].boosts)
	}
	// Double wake/sleep are idempotent.
	ksSleep(n, 3)
	ksWake(n, 3)
	ksWake(n, 3)
	if n.cores[3].boosts != 2 {
		t.Fatalf("boosts=%d after double wake, want 2", n.cores[3].boosts)
	}
}

func TestProfilerDerivesThresholds(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProfiler(eng)
	// Burst 1: 3 interrupts; max polls/interrupt = 48; poll 80 intr 120.
	feed := func(intr int, polls []int) {
		interrupt(p, 0)
		packets(p, 0, kernel.InterruptMode, intr)
		for _, pl := range polls {
			packets(p, 0, kernel.PollingMode, pl)
		}
	}
	feed(40, []int{16, 16}) // 32 polling in this window
	eng.Schedule(100*sim.Microsecond, func() {})
	eng.RunAll()
	feed(40, []int{48})
	feed(40, nil)
	// Quiet gap ends the burst.
	eng.Schedule(10*sim.Millisecond, func() {})
	eng.RunAll()
	// Burst 2 begins (only detected via the next interrupt).
	feed(10, []int{5})
	th := p.Thresholds()
	if th.NITh != 48 {
		t.Fatalf("NI_TH = %f, want 48 (max polls per interrupt)", th.NITh)
	}
	// Burst 1 ratio: 80/120 = 0.667; burst 2: 5/10 = 0.5 → avg 0.583.
	if th.CUTh < 0.55 || th.CUTh > 0.62 {
		t.Fatalf("CU_TH = %f, want ~0.583", th.CUTh)
	}
	if p.Bursts() != 2 {
		t.Fatalf("bursts=%d, want 2", p.Bursts())
	}
}

func TestProfilerNoPollingYieldsDefaults(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProfiler(eng)
	interrupt(p, 0)
	packets(p, 0, kernel.InterruptMode, 10)
	th := p.Thresholds()
	def := DefaultThresholds()
	if th != def {
		t.Fatalf("thresholds = %+v, want defaults for degenerate trace", th)
	}
}

func TestProfilerEarlyWindowOnly(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProfiler(eng)
	p.earlyInterrupts = 2
	interrupt(p, 0)
	packets(p, 0, kernel.PollingMode, 10)
	interrupt(p, 0)
	packets(p, 0, kernel.PollingMode, 20)
	interrupt(p, 0) // third interrupt: beyond the early window
	packets(p, 0, kernel.PollingMode, 500)
	th := p.Thresholds()
	if th.NITh != 20 {
		t.Fatalf("NI_TH = %f, want 20 (late polling excluded)", th.NITh)
	}
}
