package governor

import (
	"testing"
	"testing/quick"

	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
)

func TestPerformanceAlwaysP0(t *testing.T) {
	g := Performance{}
	if g.Decide(0, UtilSample{Busy: 0}) != 0 || g.Decide(3, UtilSample{Busy: 1}) != 0 {
		t.Fatal("performance must always pick P0")
	}
}

func TestPowersaveAlwaysPmin(t *testing.T) {
	g := Powersave{Model: cpu.XeonGold6134}
	if g.Decide(0, UtilSample{Busy: 1}) != 15 {
		t.Fatal("powersave must always pick Pmin")
	}
}

func TestUserspaceFixed(t *testing.T) {
	g := Userspace{Model: cpu.XeonGold6134, P: 7}
	if g.Decide(0, UtilSample{Busy: 0.9}) != 7 {
		t.Fatal("userspace must hold the configured state")
	}
}

func TestOndemandJumpsToP0AboveThreshold(t *testing.T) {
	g := Ondemand{Model: cpu.XeonGold6134}
	if p := g.Decide(0, UtilSample{Busy: 0.85}); p != 0 {
		t.Fatalf("ondemand at 85%% util → P%d, want P0", p)
	}
	if p := g.Decide(0, UtilSample{Busy: 0.0}); p != 15 {
		t.Fatalf("ondemand at 0%% util → P%d, want P15", p)
	}
}

func TestOndemandProportionalBelowThreshold(t *testing.T) {
	g := Ondemand{Model: cpu.XeonGold6134}
	p50 := g.Decide(0, UtilSample{Busy: 0.50})
	if p50 <= 0 || p50 >= 15 {
		t.Fatalf("ondemand at 50%% util → P%d, want intermediate", p50)
	}
	p20 := g.Decide(0, UtilSample{Busy: 0.20})
	if p20 <= p50 {
		t.Fatalf("lower util must map to slower state: P%d !> P%d", p20, p50)
	}
}

// Property: ondemand's decision is monotone in utilisation and the
// chosen frequency covers the target.
func TestOndemandMonotoneProperty(t *testing.T) {
	g := Ondemand{Model: cpu.XeonGold6134}
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		pa := g.Decide(0, UtilSample{Busy: a})
		pb := g.Decide(0, UtilSample{Busy: b})
		return pa >= pb // higher util → faster (lower index)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConservativeStepsGradually(t *testing.T) {
	g := &Conservative{Model: cpu.XeonGold6134}
	p := g.Decide(0, UtilSample{Busy: 1.0})
	if p != 14 {
		t.Fatalf("conservative first step → P%d, want P14 (one step from P15)", p)
	}
	for i := 0; i < 20; i++ {
		p = g.Decide(0, UtilSample{Busy: 1.0})
	}
	if p != 0 {
		t.Fatalf("conservative under sustained load → P%d, want P0", p)
	}
	p = g.Decide(0, UtilSample{Busy: 0.0})
	if p != 1 {
		t.Fatalf("conservative step-down → P%d, want P1", p)
	}
}

func TestConservativePerCoreState(t *testing.T) {
	g := &Conservative{Model: cpu.XeonGold6134}
	g.Decide(0, UtilSample{Busy: 1.0})
	g.Decide(0, UtilSample{Busy: 1.0})
	p1 := g.Decide(1, UtilSample{Busy: 1.0})
	if p1 != 14 {
		t.Fatalf("core 1 first step → P%d, want P14 (independent state)", p1)
	}
}

func TestIntelPowersaveUsesCC0Residency(t *testing.T) {
	g := &IntelPowersave{Model: cpu.XeonGold6134}
	// Busy is low but the core never sleeps (disable policy): CC0 = 1.0.
	var p int
	for i := 0; i < 40; i++ {
		p = g.Decide(0, UtilSample{Busy: 0.05, CC0: 1.0})
	}
	if p != 0 {
		t.Fatalf("intel_powersave with CC0=100%% → P%d, want P0 (paper footnote)", p)
	}
}

func TestIntelPowersaveReactsSlowerThanOndemand(t *testing.T) {
	ip := &IntelPowersave{Model: cpu.XeonGold6134}
	od := Ondemand{Model: cpu.XeonGold6134}
	// One high-util sample after a long quiet phase.
	for i := 0; i < 10; i++ {
		ip.Decide(0, UtilSample{Busy: 0, CC0: 0})
	}
	pIP := ip.Decide(0, UtilSample{Busy: 1.0, CC0: 1.0})
	pOD := od.Decide(0, UtilSample{Busy: 1.0})
	if pOD != 0 {
		t.Fatalf("ondemand must jump instantly, got P%d", pOD)
	}
	if pIP == 0 {
		t.Fatal("intel_powersave jumped instantly; EWMA smoothing missing")
	}
}

func TestStackSamplesAndApplies(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	st := NewStack(eng, proc, Ondemand{Model: cpu.XeonGold6134})
	st.Start()
	// Keep core 0 busy continuously.
	var loop func()
	loop = func() {
		if eng.Now() < sim.Time(50*sim.Millisecond) {
			proc.Cores[0].StartExec(3200*100, loop)
		}
	}
	loop()
	eng.Run(sim.Time(50 * sim.Millisecond))
	if proc.Cores[0].PState() != 0 {
		t.Fatalf("busy core at P%d under ondemand, want P0", proc.Cores[0].PState())
	}
	if proc.Cores[1].PState() != 15 {
		t.Fatalf("idle core at P%d under ondemand, want P15", proc.Cores[1].PState())
	}
}

func TestStackSuspendResume(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	st := NewStack(eng, proc, Ondemand{Model: cpu.XeonGold6134})
	st.Start()
	st.Suspend(0)
	proc.Request(0, 0) // NMAP boosts
	eng.Run(sim.Time(50 * sim.Millisecond))
	if proc.Cores[0].PState() != 0 {
		t.Fatalf("suspended core at P%d, want NMAP's P0 to stick", proc.Cores[0].PState())
	}
	if !st.suspended[0] {
		t.Fatal("suspended[0] = false")
	}
	st.Resume(0) // idle core: governor should drop it back down
	eng.Run(sim.Time(100 * sim.Millisecond))
	if proc.Cores[0].PState() != 15 {
		t.Fatalf("resumed idle core at P%d, want P15", proc.Cores[0].PState())
	}
}

func TestStackResumeIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	st := NewStack(eng, proc, Performance{})
	st.Resume(0) // resume without suspend must be a no-op
	if st.suspended[0] {
		t.Fatal("core suspended after spurious resume")
	}
}

func TestMenuDeepensWithLongIdleHistory(t *testing.T) {
	m := &Menu{}
	// First idle with no history: shallow.
	if s := m.SelectState(0); s != cpu.CC1 {
		t.Fatalf("menu with no history → %v, want CC1", s)
	}
	for i := 0; i < 8; i++ {
		m.IdleEnded(0, 5*sim.Millisecond)
	}
	if s := m.SelectState(0); s != cpu.CC6 {
		t.Fatalf("menu with long-idle history → %v, want CC6", s)
	}
	for i := 0; i < 8; i++ {
		m.IdleEnded(0, 5*sim.Microsecond)
	}
	if s := m.SelectState(0); s == cpu.CC6 {
		t.Fatal("menu chose CC6 despite short-idle history")
	}
}

func TestMenuPerCoreHistory(t *testing.T) {
	m := &Menu{}
	for i := 0; i < 8; i++ {
		m.IdleEnded(0, 10*sim.Millisecond)
	}
	if s := m.SelectState(1); s == cpu.CC6 {
		t.Fatal("core 1 inherited core 0's history")
	}
}

func TestIdlePolicyRegistry(t *testing.T) {
	for _, name := range []string{"menu", "disable", "c6only"} {
		p, ok := NewIdlePolicy(name)
		if !ok || p.Name() != name {
			t.Fatalf("NewIdlePolicy(%q) broken", name)
		}
	}
	if _, ok := NewIdlePolicy("nope"); ok {
		t.Fatal("unknown policy accepted")
	}
}

func TestDisableAndC6OnlyPolicies(t *testing.T) {
	if (Disable{}).SelectState(0) != cpu.CC0 {
		t.Fatal("disable must poll-idle in CC0")
	}
	if (C6Only{}).SelectState(0) != cpu.CC6 {
		t.Fatal("c6only must always pick CC6")
	}
}

func TestUtilToPStateCoversTarget(t *testing.T) {
	m := cpu.XeonGold6134
	for u := 0.0; u <= 1.0; u += 0.01 {
		p := utilToPState(m, u)
		if u < 0.8 {
			fmin := m.PStates[m.MaxP()].FreqGHz
			fmax := m.PStates[0].FreqGHz
			target := fmin + (u/0.8)*(fmax-fmin)
			if m.PStates[p].FreqGHz < target-1e-9 {
				t.Fatalf("util %.2f → P%d (%.3fGHz) below target %.3fGHz",
					u, p, m.PStates[p].FreqGHz, target)
			}
		} else if p != 0 {
			t.Fatalf("util %.2f above threshold → P%d, want P0", u, p)
		}
	}
}
