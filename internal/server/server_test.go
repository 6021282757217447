package server

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

func quickCfg(level workload.Level, seed uint64) Config {
	return Config{
		Seed:     seed,
		Level:    level,
		Warmup:   100 * sim.Millisecond,
		Duration: 400 * sim.Millisecond,
	}
}

func runWith(t *testing.T, cfg Config, govName string, idleName string) Result {
	t.Helper()
	idle, ok := governor.NewIdlePolicy(idleName)
	if !ok {
		t.Fatalf("unknown idle policy %q", idleName)
	}
	s := New(cfg, idle)
	var g governor.CPUGovernor
	switch govName {
	case "performance":
		g = governor.Performance{}
	case "powersave":
		g = governor.Powersave{Model: s.Cfg.Model}
	case "ondemand":
		g = governor.Ondemand{Model: s.Cfg.Model}
	default:
		t.Fatalf("unknown governor %q", govName)
	}
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, g))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLowLoadPerformanceMeetsSLO(t *testing.T) {
	res := runWith(t, quickCfg(workload.Low, 1), "performance", "menu")
	if res.Summary.N == 0 {
		t.Fatal("no requests measured")
	}
	if res.Violated {
		t.Fatalf("performance governor violated SLO at low load: %v", res)
	}
	if res.Drops != 0 {
		t.Fatalf("NIC drops at low load: %d", res.Drops)
	}
}

func TestLowLoadOndemandMeetsSLO(t *testing.T) {
	res := runWith(t, quickCfg(workload.Low, 2), "ondemand", "menu")
	if res.Violated {
		t.Fatalf("ondemand violated SLO at low load: %v", res)
	}
}

func TestThroughputMatchesOfferedLoad(t *testing.T) {
	cfg := quickCfg(workload.Medium, 3)
	res := runWith(t, cfg, "performance", "menu")
	// 290K RPS over the 400ms measured window ≈ 116000 completions.
	want := 290_000 * 0.4
	got := float64(res.Summary.N)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("measured %d responses, want ~%.0f", res.Summary.N, want)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	a := runWith(t, quickCfg(workload.Medium, 7), "ondemand", "menu")
	b := runWith(t, quickCfg(workload.Medium, 7), "ondemand", "menu")
	if a.Summary.P99 != b.Summary.P99 || a.EnergyJ != b.EnergyJ || a.Summary.N != b.Summary.N {
		t.Fatalf("same seed diverged:\n a=%v\n b=%v", a, b)
	}
	c := runWith(t, quickCfg(workload.Medium, 8), "ondemand", "menu")
	if a.Summary.N == c.Summary.N && a.Summary.P99 == c.Summary.P99 {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestPerformanceUsesMoreEnergyThanPowersave(t *testing.T) {
	perf := runWith(t, quickCfg(workload.Low, 4), "performance", "menu")
	save := runWith(t, quickCfg(workload.Low, 4), "powersave", "menu")
	if perf.EnergyJ <= save.EnergyJ {
		t.Fatalf("performance %.1fJ <= powersave %.1fJ at equal load",
			perf.EnergyJ, save.EnergyJ)
	}
}

func TestDisableIdleCostsEnergy(t *testing.T) {
	menu := runWith(t, quickCfg(workload.Low, 5), "performance", "menu")
	dis := runWith(t, quickCfg(workload.Low, 5), "performance", "disable")
	c6 := runWith(t, quickCfg(workload.Low, 5), "performance", "c6only")
	if dis.EnergyJ <= menu.EnergyJ {
		t.Fatalf("disable %.1fJ <= menu %.1fJ (Fig 8 shape)", dis.EnergyJ, menu.EnergyJ)
	}
	if c6.EnergyJ >= menu.EnergyJ {
		t.Fatalf("c6only %.1fJ >= menu %.1fJ (Fig 8 shape)", c6.EnergyJ, menu.EnergyJ)
	}
}

func TestChipWideCoordinationFlag(t *testing.T) {
	cfg := quickCfg(workload.Low, 6)
	cfg.ForceChipWide = true
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	if s.Proc.PerCore() {
		t.Fatal("ForceChipWide did not propagate to the processor")
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	res := runWith(t, quickCfg(workload.Low, 9), "ondemand", "menu")
	if res.EnergyJ <= 0 || res.AvgPowerW <= 0 {
		t.Fatalf("energy accounting empty: %v", res)
	}
	if res.SLO != sim.Duration(sim.Millisecond) {
		t.Fatalf("SLO = %v", res.SLO)
	}
	if res.Completed == 0 {
		t.Fatal("no completions counted")
	}
	if res.String() == "" {
		t.Fatal("result string empty")
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	cfg := quickCfg(workload.Low, 10)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	res, _ := s.Run()
	// Total completions include warmup; measured histogram must be
	// strictly smaller.
	if uint64(res.Summary.N) >= res.Completed {
		t.Fatalf("measured %d >= completed %d; warmup not excluded",
			res.Summary.N, res.Completed)
	}
}

// listenFunc adapts a function to RequestListener.
type listenFunc func(r *workload.Request)

func (f listenFunc) OnRequest(r *workload.Request) { f(r) }

// With no fault and no shedding every request ends in a completion, so
// a listener sees only finished requests.
func TestRequestListenerObservesCompletions(t *testing.T) {
	cfg := quickCfg(workload.Low, 11)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	n := 0
	s.AddRequestListener(listenFunc(func(r *workload.Request) {
		n++
		if r.Done == 0 || r.Latency() <= 0 {
			t.Fatal("listener saw an unfinished request")
		}
	}))
	s.Run()
	if n == 0 {
		t.Fatal("listener never fired")
	}
}

// TestRequestListenerContract pins the listener contract on every
// outcome: under wire loss and load shedding, with the client retry
// loop on (completions, timeouts, sheds) and off (completions, losses,
// sheds), two listeners each see every terminal request exactly once,
// in the order they were added, with exactly one outcome marked, and
// their per-outcome counts equal the client ledger's.
func TestRequestListenerContract(t *testing.T) {
	var seen [4]uint64 // runs that saw each outcome, by index below
	for _, retry := range []workload.RetryConfig{
		{Timeout: 2 * sim.Millisecond, MaxRetries: 1},
		{},
	} {
		cfg := Config{
			Seed:            3,
			Level:           workload.High,
			Warmup:          5 * sim.Millisecond,
			Duration:        25 * sim.Millisecond,
			ShedSLOMultiple: 1,
			Retry:           retry,
		}
		cfg.Faults.WireLossProb = 0.05
		s := New(cfg, nil)
		var order []int // listener index of each call
		var ids [2]map[uint64]bool
		var count [2][4]uint64 // per listener: done, timed out, lost, shed
		for li := range ids {
			ids[li] = map[uint64]bool{}
			s.AddRequestListener(listenFunc(func(r *workload.Request) {
				order = append(order, li)
				if ids[li][r.ID] {
					t.Fatalf("listener %d saw request %d twice", li, r.ID)
				}
				ids[li][r.ID] = true
				outcomes := 0
				for k, ended := range []bool{r.Done != 0, r.TimedOut, r.Lost, r.Shed} {
					if ended {
						outcomes++
						count[li][k]++
					}
				}
				if outcomes != 1 {
					t.Fatalf("request %d reached a listener with %d outcomes marked", r.ID, outcomes)
				}
			}))
		}
		s.Run()
		for i, li := range order {
			if li != i%2 {
				t.Fatalf("call %d went to listener %d, want listeners in the order added", i, li)
			}
		}
		a := s.Accounting()
		want := [4]uint64{a.Completed, a.TimedOut, a.Lost, a.Shed}
		for li := range count {
			if count[li] != want {
				t.Fatalf("retry %+v: listener %d counted done/timed out/lost/shed %v, ledger has %v",
					retry, li, count[li], want)
			}
		}
		for k, n := range want {
			if n > 0 {
				seen[k]++
			}
		}
	}
	for k, name := range []string{"completed", "timed out", "lost", "shed"} {
		if seen[k] == 0 {
			t.Errorf("no run produced a %s request; the test is vacuous there", name)
		}
	}
}

func TestNginxProfileRuns(t *testing.T) {
	cfg := quickCfg(workload.Low, 12)
	cfg.Profile = workload.Nginx()
	res := runWith(t, cfg, "performance", "menu")
	if res.Violated {
		t.Fatalf("nginx low load violated 10ms SLO under performance: %v", res)
	}
	if res.Summary.N == 0 {
		t.Fatal("no nginx responses")
	}
}

func TestAllCoresReceiveWork(t *testing.T) {
	cfg := quickCfg(workload.Medium, 13)
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	s.Run()
	for i, k := range s.Kernels {
		if k.Counters().Completed == 0 {
			t.Fatalf("core %d processed nothing; RSS broken", i)
		}
	}
}

func TestVariableLoadRuns(t *testing.T) {
	mc := workload.Memcached()
	cfg := Config{
		Seed:           14,
		Profile:        mc,
		VariableLevels: []float64{mc.LowRPS, mc.MediumRPS, mc.HighRPS},
		SwitchPeriod:   100 * sim.Millisecond,
		Warmup:         100 * sim.Millisecond,
		Duration:       400 * sim.Millisecond,
	}
	res := runWith(t, cfg, "performance", "menu")
	if res.Summary.N == 0 {
		t.Fatal("variable-load run produced nothing")
	}
}

func TestUnloadedLatencyIsMicrosecondScale(t *testing.T) {
	// Base RTT sanity: net 2×(15+3)µs + kernel + app ≈ 50-80µs at P0.
	cfg := quickCfg(workload.Low, 15)
	res := runWith(t, cfg, "performance", "disable")
	if res.Summary.P50 > 200*sim.Microsecond {
		t.Fatalf("unloaded P50 = %v, want µs scale", res.Summary.P50)
	}
	if res.Summary.P50 < 30*sim.Microsecond {
		t.Fatalf("unloaded P50 = %v, implausibly fast", res.Summary.P50)
	}
}

var _ = cpu.XeonGold6134 // keep import for potential future use
