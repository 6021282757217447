package kernel

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/nic"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

type fixedIdle struct{ st cpu.CState }

func (f fixedIdle) Name() string                { return "fixed" }
func (f fixedIdle) SelectState(int) cpu.CState  { return f.st }
func (f fixedIdle) IdleEnded(int, sim.Duration) {}

type recListener struct {
	irqs, ksWakes, ksSleeps int
	batches                 []struct {
		mode Mode
		n    int
	}
}

func (r *recListener) OnNAPI(e NAPIEvent) {
	switch e.Kind {
	case InterruptArrived:
		r.irqs++
	case PacketsProcessed:
		r.batches = append(r.batches, struct {
			mode Mode
			n    int
		}{e.Mode, e.N})
	case KsoftirqdWake:
		r.ksWakes++
	case KsoftirqdSleep:
		r.ksSleeps++
	}
}

type rig struct {
	eng       *sim.Engine
	dev       *nic.NIC
	k         *CoreKernel
	done      []sim.Time
	rec       *recListener
	appCycles float64 // the app cost every delivered request carries
}

// drain runs the engine 10 simulated seconds past its current clock —
// enough for any test phase to complete while the per-core scheduler
// tick keeps the queue non-empty forever.
func drain(e *sim.Engine) { e.Run(e.Now() + sim.Time(10*sim.Second)) }

func newRig(appCycles float64, idle cpu.CState) *rig {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, rng)
	dev := nic.New(nic.DefaultConfig(1), eng, 7)
	r := &rig{eng: eng, dev: dev, rec: &recListener{}, appCycles: appCycles}
	k := NewCoreKernel(0, eng, core, dev, 0, fixedIdle{idle})
	k.OnAppComplete = func(*workload.Request) { r.done = append(r.done, eng.Now()) }
	k.AddListener(r.rec)
	k.Start()
	r.k = k
	return r
}

func (r *rig) deliver(n int) {
	for i := 0; i < n; i++ {
		r.dev.Deliver(&nic.Packet{ID: uint64(i), Flow: uint64(i), Payload: &workload.Request{ID: uint64(i), AppCycles: r.appCycles}})
	}
}

func TestSinglePacketEndToEnd(t *testing.T) {
	r := newRig(3200, cpu.CC1) // 1µs app work at 3.2GHz
	r.deliver(1)
	drain(r.eng)
	c := r.k.Counters()
	if c.PktIntr != 1 || c.PktPoll != 0 {
		t.Fatalf("pktIntr=%d pktPoll=%d, want 1,0", c.PktIntr, c.PktPoll)
	}
	if c.Completed != 1 || len(r.done) != 1 {
		t.Fatalf("completed=%d", c.Completed)
	}
	if c.Interrupts != 1 || r.rec.irqs != 1 {
		t.Fatalf("interrupts=%d", c.Interrupts)
	}
	// Sanity: completion = DMA 2µs + IRQ 1µs + CC1 wake (<2µs) + hardirq
	// 1000cyc + poll(600+2100)cyc + app 3200cyc ≈ 6-8µs.
	if r.done[0] > sim.Time(12*sim.Microsecond) {
		t.Fatalf("single packet completion at %v, want < 12µs", r.done[0])
	}
}

func TestBurstSplitsInterruptVsPollingMode(t *testing.T) {
	r := newRig(100, cpu.CC0)
	// 200 packets land before the first poll pass drains them: the first
	// pass (budget 64) counts as interrupt mode, the rest as polling.
	r.deliver(200)
	drain(r.eng)
	c := r.k.Counters()
	if c.PktIntr != 64 {
		t.Fatalf("pktIntr=%d, want 64 (first pass only)", c.PktIntr)
	}
	if c.PktPoll != 136 {
		t.Fatalf("pktPoll=%d, want 136", c.PktPoll)
	}
	if c.Completed != 200 {
		t.Fatalf("completed=%d, want 200", c.Completed)
	}
	if c.KsoftirqdWakes != 0 {
		t.Fatalf("ksoftirqd woke on a 4-pass burst: %d", c.KsoftirqdWakes)
	}
}

func TestKsoftirqdMigrationAfterTenPasses(t *testing.T) {
	// 64 * 12 packets in one burst: the first pass plus ten more passes
	// without emptying the ring trips the migration threshold. Use a
	// ring large enough to hold the whole burst.
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	ncfg := nic.DefaultConfig(1)
	ncfg.RingSize = 2048
	dev := nic.New(ncfg, eng, 7)
	rec := &recListener{}
	k := NewCoreKernel(0, eng, core, dev, 0, fixedIdle{cpu.CC0})
	k.AddListener(rec)
	k.Start()
	for i := 0; i < 64*12; i++ {
		dev.Deliver(&nic.Packet{ID: uint64(i), Flow: uint64(i), Payload: &workload.Request{ID: uint64(i), AppCycles: 100}})
	}
	drain(eng)
	r := &rig{eng: eng, dev: dev, k: k, rec: rec}
	c := r.k.Counters()
	if c.KsoftirqdWakes != 1 {
		t.Fatalf("ksoftirqd wakes=%d, want 1", c.KsoftirqdWakes)
	}
	if r.rec.ksWakes != 1 || r.rec.ksSleeps != 1 {
		t.Fatalf("listener ks wake/sleep = %d/%d, want 1/1", r.rec.ksWakes, r.rec.ksSleeps)
	}
	if c.Completed != 64*12 {
		t.Fatalf("completed=%d, want %d", c.Completed, 64*12)
	}
	if r.k.inKsoftirqd {
		t.Fatal("ksoftirqd still active after drain")
	}
}

func TestKsoftirqdSharesCoreWithApp(t *testing.T) {
	// Heavy app work: once ksoftirqd owns the NAPI context, the app
	// thread must still make progress between poll passes (round-robin),
	// i.e. some completions must land before ksoftirqd sleeps.
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	dev := nic.New(nic.DefaultConfig(1), eng, 7)
	var completions []sim.Time
	var ksSleepAt sim.Time
	rec := &recListener{}
	k := NewCoreKernel(0, eng, core, dev, 0, fixedIdle{cpu.CC0})
	k.OnAppComplete = func(*workload.Request) { completions = append(completions, eng.Now()) }
	k.AddListener(rec)
	k.Start()
	// Trickle packets so the ring never empties for a while.
	for i := 0; i < 64*14; i++ {
		d := sim.Duration(i) * 500 // one packet per 0.5µs
		id := uint64(i)
		eng.Schedule(d, func() {
			dev.Deliver(&nic.Packet{ID: id, Flow: id, Payload: &workload.Request{ID: id, AppCycles: 32000}}) // 10µs each
		})
	}
	// Capture when ksoftirqd sleeps.
	k.AddListener(onKsSleep(func() { ksSleepAt = eng.Now() }))
	drain(eng)
	if rec.ksWakes == 0 {
		t.Fatal("ksoftirqd never woke under sustained input")
	}
	before := 0
	for _, c := range completions {
		if c < ksSleepAt {
			before++
		}
	}
	if before == 0 {
		t.Fatal("app thread starved while ksoftirqd was active (round-robin broken)")
	}
}

// onKsSleep is a listener that calls itself when ksoftirqd sleeps.
type onKsSleep func()

func (f onKsSleep) OnNAPI(e NAPIEvent) {
	if e.Kind == KsoftirqdSleep {
		f()
	}
}

func TestHardirqPreemptsApp(t *testing.T) {
	r := newRig(3_200_000, cpu.CC0) // 1ms of app work
	r.deliver(1)
	drain(r.eng)
	first := r.done[0]
	// Second packet arrives while the first is being processed: the
	// hardirq + softirq must run promptly (preempting the app), and the
	// first request finishes later than it would have unpreempted.
	r.deliver(1)
	r.eng.Schedule(0, func() {})
	start := r.eng.Now()
	r.deliver(1)
	drain(r.eng)
	_ = first
	c := r.k.Counters()
	if c.Interrupts < 2 {
		t.Fatalf("interrupts=%d, want >=2 (app must not block hardirq)", c.Interrupts)
	}
	if c.Completed != 3 {
		t.Fatalf("completed=%d, want 3", c.Completed)
	}
	_ = start
}

func TestIdleEntersSelectedCState(t *testing.T) {
	r := newRig(3200, cpu.CC6)
	drain(r.eng)
	if r.k.core.CStateNow() != cpu.CC6 {
		t.Fatalf("idle core in %v, want CC6", r.k.core.CStateNow())
	}
	r.deliver(1)
	drain(r.eng)
	if r.k.Counters().Completed != 1 {
		t.Fatal("request not completed after CC6 wake")
	}
	if r.k.core.CStateNow() != cpu.CC6 {
		t.Fatal("core did not return to CC6 after the work drained")
	}
	if r.k.core.Snapshot().CC6Entries < 2 {
		t.Fatal("CC6 entries not counted")
	}
}

func TestCC6WakeDelaysFirstRequest(t *testing.T) {
	deep := newRig(3200, cpu.CC6)
	deep.deliver(1)
	drain(deep.eng)
	shallow := newRig(3200, cpu.CC0)
	shallow.deliver(1)
	drain(shallow.eng)
	dd, ds := deep.done[0], shallow.done[0]
	diff := sim.Duration(dd - ds)
	// CC6 wake ≈ 27µs + half the 26.4µs flush penalty ≈ 40µs extra.
	if diff < 25*sim.Microsecond || diff > 60*sim.Microsecond {
		t.Fatalf("CC6 penalty = %v, want ~40µs", diff)
	}
}

func TestSockQHighWaterMark(t *testing.T) {
	r := newRig(320000, cpu.CC0) // slow app: 100µs per request
	r.deliver(100)
	drain(r.eng)
	c := r.k.Counters()
	if c.MaxSockQ < 50 {
		t.Fatalf("MaxSockQ=%d, want a real backlog", c.MaxSockQ)
	}
	if c.Completed != 100 {
		t.Fatalf("completed=%d", c.Completed)
	}
}

func TestModeCountersMatchListenerTotals(t *testing.T) {
	r := newRig(100, cpu.CC0)
	r.deliver(300)
	drain(r.eng)
	var li, lp uint64
	for _, b := range r.rec.batches {
		if b.mode == InterruptMode {
			li += uint64(b.n)
		} else {
			lp += uint64(b.n)
		}
	}
	c := r.k.Counters()
	if li != c.PktIntr || lp != c.PktPoll {
		t.Fatalf("listener totals %d/%d != counters %d/%d", li, lp, c.PktIntr, c.PktPoll)
	}
	if li+lp != 300 {
		t.Fatalf("total packets %d, want 300", li+lp)
	}
}

func TestLowRateStaysInInterruptMode(t *testing.T) {
	// Packets spaced far apart: every packet is drained by the first
	// pass, so polling-mode count stays zero — the low-load signature
	// NMAP relies on (§3.1).
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	dev := nic.New(nic.DefaultConfig(1), eng, 7)
	k := NewCoreKernel(0, eng, core, dev, 0, fixedIdle{cpu.CC1})
	k.Start()
	for i := 0; i < 50; i++ {
		d := sim.Duration(i) * 100 * sim.Microsecond
		id := uint64(i)
		eng.Schedule(d, func() {
			dev.Deliver(&nic.Packet{ID: id, Flow: id, Payload: &workload.Request{ID: id, AppCycles: 3200}})
		})
	}
	drain(eng)
	c := k.Counters()
	if c.PktPoll != 0 {
		t.Fatalf("pktPoll=%d at low rate, want 0", c.PktPoll)
	}
	if c.PktIntr != 50 {
		t.Fatalf("pktIntr=%d, want 50", c.PktIntr)
	}
}
