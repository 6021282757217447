package core

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

// interrupt, packets, ksWake and ksSleep hand l one NAPI event each.
func interrupt(l kernel.NAPIListener, core int) {
	l.OnNAPI(kernel.NAPIEvent{Kind: kernel.InterruptArrived, Core: core})
}

func packets(l kernel.NAPIListener, core int, mode kernel.Mode, n int) {
	l.OnNAPI(kernel.NAPIEvent{Kind: kernel.PacketsProcessed, Core: core, Mode: mode, N: n})
}

func ksWake(l kernel.NAPIListener, core int) {
	l.OnNAPI(kernel.NAPIEvent{Kind: kernel.KsoftirqdWake, Core: core})
}

func ksSleep(l kernel.NAPIListener, core int) {
	l.OnNAPI(kernel.NAPIEvent{Kind: kernel.KsoftirqdSleep, Core: core})
}

// feedBurst pushes one synthetic burst (interrupts + packets) through a
// listener, then advances the engine past the quiet gap so the burst
// closes.
func feedBurst(eng *sim.Engine, l kernel.NAPIListener, intrPkts, pollPkts int) {
	for i := 0; i < 10; i++ {
		interrupt(l, 0)
		packets(l, 0, kernel.InterruptMode, intrPkts/10)
		packets(l, 0, kernel.PollingMode, pollPkts/10)
		eng.Schedule(100*sim.Microsecond, func() {})
		eng.RunAll()
	}
	// Quiet gap ends the burst at the next interrupt.
	eng.Schedule(10*sim.Millisecond, func() {})
	eng.RunAll()
}

func TestOnlineTunerAdaptsThresholds(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134})
	n := NewNMAP(eng, proc, stack, DefaultThresholds())
	tuner := NewOnlineTuner(eng, n)
	tuner.adjustEvery = 2

	start := n.CurrentThresholds()
	// Feed six bursts with a polling-heavy signature very different
	// from the defaults.
	for b := 0; b < 6; b++ {
		feedBurst(eng, tuner, 100, 900)
	}
	if tuner.updates == 0 {
		t.Fatal("tuner never updated the thresholds")
	}
	got := n.CurrentThresholds()
	if got == start {
		t.Fatal("thresholds unchanged after adaptation")
	}
	// The observed per-burst ratio is 9; CU_TH must have moved toward
	// it from the default 0.25.
	if got.CUTh <= start.CUTh {
		t.Fatalf("CU_TH %f did not move toward the observed ratio 9", got.CUTh)
	}
}

func TestOnlineTunerBlendDamps(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134})
	n := NewNMAP(eng, proc, stack, Thresholds{NITh: 100, CUTh: 1.0})
	tuner := NewOnlineTuner(eng, n)
	tuner.adjustEvery = 1
	feedBurst(eng, tuner, 100, 900)
	feedBurst(eng, tuner, 100, 900) // the first burst only closes at this one's first interrupt
	got := n.CurrentThresholds()
	// With blend 0.5 the first update moves halfway, not all the way.
	if got.CUTh >= 9 || got.CUTh <= 1.0 {
		t.Fatalf("CU_TH = %f after one blended update from 1.0 toward 9", got.CUTh)
	}
}

func TestPeekDoesNotCloseBurst(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProfiler(eng)
	if th := p.Peek(); th != (Thresholds{}) {
		t.Fatalf("Peek on empty profiler = %+v, want zero", th)
	}
	// Mid-burst Peek must not register the in-progress burst.
	interrupt(p, 0)
	packets(p, 0, kernel.InterruptMode, 10)
	packets(p, 0, kernel.PollingMode, 50)
	interrupt(p, 0)
	before := p.Bursts()
	_ = p.Peek()
	if p.Bursts() != before {
		t.Fatal("Peek closed the in-progress burst")
	}
}

func TestIntegrateSleepForcesAwakeDuringBoost(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134})
	n := NewNMAP(eng, proc, stack, Thresholds{NITh: 8, CUTh: 0.25})
	n.Start()
	ctl := &fakeSleepCtl{}
	n.IntegrateSleep(ctl)

	packets(n, 2, kernel.PollingMode, 20) // boost core 2
	if !ctl.awake {
		t.Fatal("boost did not force the idle policy awake")
	}
	// Zero traffic: the periodic engine falls core 2 back; all cores in
	// CPU-util mode → sleep restored.
	eng.Run(sim.Time(50 * sim.Millisecond))
	if n.cores[2].mode != CPUUtilMode {
		t.Fatal("core 2 did not fall back")
	}
	if ctl.awake {
		t.Fatal("sleep not restored after all cores fell back")
	}
}

type fakeSleepCtl struct{ awake bool }

func (f *fakeSleepCtl) ForceAwake(v bool) { f.awake = v }

func TestSetThresholdsTakesEffect(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	stack := governor.NewStack(eng, proc, governor.Ondemand{Model: cpu.XeonGold6134})
	n := NewNMAP(eng, proc, stack, Thresholds{NITh: 1000, CUTh: 0.25})
	packets(n, 0, kernel.PollingMode, 100)
	if n.cores[0].mode != CPUUtilMode {
		t.Fatal("boosted below NI_TH=1000")
	}
	n.SetThresholds(Thresholds{NITh: 50, CUTh: 0.25})
	packets(n, 0, kernel.PollingMode, 100)
	if n.cores[0].mode != NetworkIntensiveMode {
		t.Fatal("lowered NI_TH did not take effect")
	}
}
