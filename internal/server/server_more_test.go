package server

import (
	"runtime"
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Failure injection: a tiny Rx ring overflows under a high-load burst.
// The server must shed load (count drops) and keep serving rather than
// deadlock or leak.
func TestTinyRingOverflowsGracefully(t *testing.T) {
	cfg := quickCfg(workload.High, 21)
	cfg.NICRing = 4
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	// powersave pins Pmin, guaranteeing kernel saturation during bursts.
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Powersave{Model: s.Cfg.Model}))
	res, _ := s.Run()
	if res.Drops == 0 {
		t.Fatal("expected ring drops with a 4-entry ring at high load on Pmin")
	}
	if res.Summary.N == 0 {
		t.Fatal("server stopped serving entirely under overflow")
	}
	// Conservation: completed + still-queued + dropped ≈ offered. We
	// can at least assert completions never exceed deliveries.
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
}

func TestEnergyMonotonicWithLoad(t *testing.T) {
	var prev float64
	for i, lvl := range workload.Levels {
		res := runWith(t, quickCfg(lvl, 23), "performance", "menu")
		if i > 0 && res.EnergyJ <= prev {
			t.Fatalf("energy not increasing with load: %f after %f", res.EnergyJ, prev)
		}
		prev = res.EnergyJ
	}
}

func TestChipWideUsesMoreEnergyThanPerCore(t *testing.T) {
	run := func(chipWide bool) Result {
		cfg := quickCfg(workload.Medium, 24)
		cfg.ForceChipWide = chipWide
		idle, _ := governor.NewIdlePolicy("menu")
		s := New(cfg, idle)
		s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model}))
		res, _ := s.Run()
		return res
	}
	per := run(false)
	chip := run(true)
	// Chip-wide coordination pulls every core to the fastest request:
	// it can only cost more energy (the §6.3 argument for NMAP > NCAP).
	if chip.EnergyJ < per.EnergyJ {
		t.Fatalf("chip-wide %.1fJ < per-core %.1fJ", chip.EnergyJ, per.EnergyJ)
	}
}

func TestNetLatencyLowerBoundsResponses(t *testing.T) {
	res := runWith(t, quickCfg(workload.Low, 25), "performance", "disable")
	// Two traversals of the base latency each: nothing can respond faster.
	if min := res.Hist.Min(); min < 2*netLatency {
		t.Fatalf("fastest response %v below the physical network floor %v", min, 2*netLatency)
	}
}

func TestCollectWithoutRunIsSane(t *testing.T) {
	cfg := quickCfg(workload.Low, 26)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	res := s.Collect() // nothing ran: all zeros, no panic
	if res.Summary.N != 0 || res.Completed != 0 {
		t.Fatalf("empty collect produced data: %+v", res)
	}
}

func TestPolicyStartedExactlyOnce(t *testing.T) {
	cfg := quickCfg(workload.Low, 27)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	starts := 0
	s.AttachPolicy(policyFunc{start: func() { starts++ }})
	s.Run()
	if starts != 1 {
		t.Fatalf("policy started %d times", starts)
	}
}

type policyFunc struct{ start func() }

func (p policyFunc) Start() {
	if p.start != nil {
		p.start()
	}
}

// AttachPolicy alone subscribes a policy that listens to NAPI events to
// every core kernel: it sees each poll batch exactly once.
func TestAttachPolicySubscribesNAPIListener(t *testing.T) {
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(quickCfg(workload.High, 29), idle)
	p := &batchCounter{}
	s.AttachPolicy(p)
	s.Run()
	var want uint64
	for _, k := range s.Kernels {
		c := k.Counters()
		want += c.PktIntr + c.PktPoll
	}
	if want == 0 || p.pkts != want {
		t.Fatalf("policy saw %d packets in poll batches, kernels processed %d", p.pkts, want)
	}
}

// batchCounter is a policy that sums the packets of every poll batch.
type batchCounter struct {
	policyFunc
	pkts uint64
}

func (b *batchCounter) OnNAPI(e kernel.NAPIEvent) {
	if e.Kind == kernel.PacketsProcessed {
		b.pkts += uint64(e.N)
	}
}

func TestMeasuredFromMatchesWarmup(t *testing.T) {
	cfg := quickCfg(workload.Low, 28)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	s.Run()
	if s.measFrom != sim.Time(cfg.Warmup) {
		t.Fatalf("measured-from %v, want %v", s.measFrom, cfg.Warmup)
	}
}

func TestTransitionsCountedAcrossCores(t *testing.T) {
	res := runWith(t, quickCfg(workload.High, 29), "ondemand", "menu")
	if res.Transitions == 0 {
		t.Fatal("ondemand at bursty high load recorded zero V/F transitions")
	}
}

func TestDifferentProcessorModel(t *testing.T) {
	cfg := quickCfg(workload.Low, 30)
	cfg.Model = cpu.XeonE52620v4
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	if len(s.Kernels) != 8 {
		t.Fatalf("E5-2620v4 server has %d kernels, want 8", len(s.Kernels))
	}
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	res, _ := s.Run()
	if res.Summary.N == 0 {
		t.Fatal("no results on the E5 model")
	}
}

// The memory watermark charges 8 bytes per preallocated sample, the
// widened recorder's worst case, so it downgrades the same sweep cells
// to streaming whatever width a recorder ends up with.
func TestEstimatedHistBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"memcached high 2s", Config{Level: workload.High, Duration: 2 * sim.Second}, 1_875_000},
		{"memcached low default 1s", Config{Level: workload.Low}, 37_500},
		{"nginx medium 8s", Config{Profile: workload.Nginx(), Level: workload.Medium, Duration: 8 * sim.Second}, 480_000},
		{"floor", Config{Level: workload.Low, Duration: 10 * sim.Millisecond}, 1 << 12},
		{"ceiling", Config{Level: workload.High, Duration: 10 * sim.Second}, 1 << 22},
		{"variable levels", Config{VariableLevels: []float64{30_000, 750_000, 290_000}}, 937_500},
		{"explicit rps", Config{RPS: 100_000, Duration: 500 * sim.Millisecond}, 62_500},
	} {
		if got := HistCapacity(c.cfg); got != c.want {
			t.Errorf("%s: HistCapacity = %d, want %d", c.name, got, c.want)
		}
		if got := EstimatedHistBytes(c.cfg); got != int64(c.want)*8 {
			t.Errorf("%s: EstimatedHistBytes = %d, want %d", c.name, got, int64(c.want)*8)
		}
	}
}

// The exact recorder the mc-high configuration (memcached at 750k RPS
// for 2 s) preallocates costs 2 bytes per HistCapacity slot, plus a
// 2-byte key per 256-slot page and a few KB of open pages and
// directory: a return to 4-byte samples doubles it.
func TestHistCapacityBytesPerSlot(t *testing.T) {
	slots := HistCapacity(Config{Level: workload.High, Duration: 2 * sim.Second})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h := stats.NewHist(slots)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(h)
	got := m1.TotalAlloc - m0.TotalAlloc
	if limit := uint64(2*slots + 2*slots/256 + 16<<10); got > limit {
		t.Fatalf("NewHist(%d) allocates %d bytes (%.3f B/slot), want ≤ %d", slots, got, float64(got)/float64(slots), limit)
	}
}
