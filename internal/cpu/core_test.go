package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"nmapsim/internal/sim"
)

func newTestCore(m *Model) (*sim.Engine, *Core) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	return eng, NewCore(0, m, eng, rng)
}

func TestPStateTablesMonotonic(t *testing.T) {
	for _, m := range Models {
		for i := 1; i < len(m.PStates); i++ {
			if m.PStates[i].FreqGHz >= m.PStates[i-1].FreqGHz {
				t.Errorf("%s: P%d freq %.3f >= P%d freq %.3f",
					m.Name, i, m.PStates[i].FreqGHz, i-1, m.PStates[i-1].FreqGHz)
			}
			if m.PStates[i].Volt >= m.PStates[i-1].Volt {
				t.Errorf("%s: P%d volt not decreasing", m.Name, i)
			}
		}
	}
}

func TestGold6134MatchesPaperSpec(t *testing.T) {
	m := XeonGold6134
	if len(m.PStates) != 16 {
		t.Fatalf("Gold 6134 has %d P-states, paper says 16", len(m.PStates))
	}
	if math.Abs(m.PStates[0].FreqGHz-3.2) > 1e-9 {
		t.Fatalf("P0 = %.3f GHz, want 3.2", m.PStates[0].FreqGHz)
	}
	if math.Abs(m.PStates[15].FreqGHz-1.2) > 1e-9 {
		t.Fatalf("P15 = %.3f GHz, want 1.2", m.PStates[15].FreqGHz)
	}
	if m.NumCores != 8 || !m.PerCoreDVFS {
		t.Fatal("Gold 6134 must be 8 cores with per-core DVFS")
	}
}

func TestExecCompletesAtFrequency(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	// 3200 cycles at 3.2 GHz = 1000 ns.
	var doneAt sim.Time
	c.StartExec(3200, func() { doneAt = eng.Now() })
	eng.RunAll()
	if doneAt != 1000 {
		t.Fatalf("exec completed at %d ns, want 1000", doneAt)
	}
}

func TestExecRepricesOnFrequencyChange(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	// Start 32000 cycles at 3.2 GHz (would take 10µs). Halfway through
	// the effective frequency drops to 1.2 GHz (P15) after the ACPI
	// latency (10µs) — so the change lands exactly at completion time;
	// use a longer exec so the change lands mid-flight.
	var doneAt sim.Time
	c.StartExec(320000, func() { doneAt = eng.Now() }) // 100µs at 3.2GHz
	eng.Schedule(0, func() { c.SetPState(15) })        // effective at 10µs
	eng.RunAll()
	// 10µs at 3.2GHz = 32000 cycles done; 288000 cycles left at 1.2GHz
	// = 240µs. Total 250µs.
	want := sim.Time(250 * 1000)
	if doneAt < want-10 || doneAt > want+10 {
		t.Fatalf("repriced exec completed at %v, want ~%v", doneAt, want)
	}
}

func TestExecCancelReturnsRemaining(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	x := c.StartExec(32000, func() { t.Fatal("cancelled exec completed") })
	eng.Schedule(5000, func() { // 5µs in: 16000 cycles consumed
		rem := x.Cancel()
		if math.Abs(rem-16000) > 1 {
			t.Fatalf("remaining = %v cycles, want 16000", rem)
		}
	})
	eng.Run(1_000_000)
	if c.busy {
		t.Fatal("core still busy after cancel (busy flag leaked)")
	}
}

func TestSetPStateACPIThenReTransition(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	lat1 := c.SetPState(5)
	if lat1 != XeonGold6134.ACPILatency {
		t.Fatalf("first transition latency %v, want ACPI %v", lat1, XeonGold6134.ACPILatency)
	}
	eng.Schedule(15*sim.Microsecond, func() {
		// Within the settle window of the first effect: re-transition.
		lat2 := c.SetPState(0)
		if lat2 < 400*sim.Microsecond {
			t.Fatalf("back-to-back transition latency %v, want ~526µs re-transition", lat2)
		}
	})
	eng.RunAll()
	if c.PState() != 0 {
		t.Fatalf("final P-state %d, want 0", c.PState())
	}
}

func TestSetPStateAfterSettleIsCheap(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.SetPState(5)
	var lat sim.Duration
	eng.Schedule(5*sim.Millisecond, func() { lat = c.SetPState(0) })
	eng.RunAll()
	if lat != XeonGold6134.ACPILatency {
		t.Fatalf("settled transition latency %v, want ACPI 10µs", lat)
	}
}

func TestSetPStateNoopWhenSame(t *testing.T) {
	_, c := newTestCore(XeonGold6134)
	if lat := c.SetPState(0); lat != 0 {
		t.Fatalf("no-op transition charged %v", lat)
	}
}

func TestPendingSupersededByNewRequest(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.SetPState(15)
	c.SetPState(3) // supersedes before the first takes effect
	eng.RunAll()
	if c.PState() != 3 {
		t.Fatalf("final P-state %d, want 3 (last write wins)", c.PState())
	}
}

func TestSleepWakeLatencies(t *testing.T) {
	_, c := newTestCore(XeonGold6134)
	c.Sleep(CC6)
	lat := c.Wake()
	if lat < 15*sim.Microsecond || lat > 45*sim.Microsecond {
		t.Fatalf("CC6 wake latency %v, want ~27µs", lat)
	}
	c.Sleep(CC1)
	lat = c.Wake()
	if lat > 3*sim.Microsecond {
		t.Fatalf("CC1 wake latency %v, want sub-µs scale", lat)
	}
}

func TestCC6EntryCountAndFlushPenalty(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.Sleep(CC6)
	c.Wake()
	if c.Snapshot().CC6Entries != 1 {
		t.Fatalf("CC6 entries = %d, want 1", c.Snapshot().CC6Entries)
	}
	// The first exec after a CC6 wake carries the cache-refill debt.
	var doneAt sim.Time
	start := eng.Now()
	c.StartExec(3200, func() { doneAt = eng.Now() })
	eng.RunAll()
	base := sim.Duration(1000) // 3200 cycles at 3.2GHz
	pen := sim.Duration(float64(XeonGold6134.CC6FlushPenalty) * XeonGold6134.CC6FlushFraction)
	want := sim.Duration(doneAt-start) - base
	if want < pen-sim.Microsecond || want > pen+sim.Microsecond {
		t.Fatalf("flush penalty charged %v, want ~%v", want, pen)
	}
	// The second exec must not carry the debt again.
	start2 := eng.Now()
	c.StartExec(3200, func() { doneAt = eng.Now() })
	eng.RunAll()
	if d := sim.Duration(doneAt - start2); d != base {
		t.Fatalf("second exec took %v, want %v (penalty must not repeat)", d, base)
	}
}

func TestEnergyIntegrationBusyVsIdle(t *testing.T) {
	engBusy, busy := newTestCore(XeonGold6134)
	var loop func()
	loop = func() {
		if engBusy.Now() < sim.Time(sim.Second) {
			busy.StartExec(3200*1000, loop) // 1ms chunks
		}
	}
	loop()
	engBusy.Run(sim.Time(sim.Second))
	busyJ := busy.Snapshot().EnergyJ

	engIdle, idle := newTestCore(XeonGold6134)
	idle.Sleep(CC6)
	engIdle.Schedule(sim.Duration(sim.Second), func() {})
	engIdle.RunAll()
	idleJ := idle.Snapshot().EnergyJ

	if busyJ < 10 || busyJ > 20 {
		t.Fatalf("busy core energy %f J over 1s, want ~12.8", busyJ)
	}
	// CC6 at P0 still pays the core's uncore-dynamic share (~0.63W).
	if idleJ > 1.0 {
		t.Fatalf("CC6 core energy %f J over 1s, want ~0.78", idleJ)
	}
	if busyJ < 10*idleJ {
		t.Fatalf("busy/CC6 energy ratio too small: %f vs %f", busyJ, idleJ)
	}
}

func TestEnergyLowerAtLowerPState(t *testing.T) {
	run := func(p int) float64 {
		eng, c := newTestCore(XeonGold6134)
		c.SetPState(p)
		eng.Run(sim.Time(100 * sim.Microsecond)) // let transition land
		var loop func()
		loop = func() {
			if eng.Now() < sim.Time(sim.Second) {
				c.StartExec(100000, loop)
			}
		}
		loop()
		eng.Run(sim.Time(sim.Second))
		return c.Snapshot().EnergyJ
	}
	hi, lo := run(0), run(15)
	if lo >= hi {
		t.Fatalf("P15 energy %f >= P0 energy %f for equal busy time", lo, hi)
	}
	if lo > 0.45*hi {
		t.Fatalf("P15/P0 energy ratio %.2f, want < 0.45 (V²f scaling)", lo/hi)
	}
}

func TestBusyAccounting(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.StartExec(3200*100, func() {}) // 100µs
	eng.RunAll()
	acct := c.Snapshot()
	if acct.BusyNs != 100000 {
		t.Fatalf("busyNs = %d, want 100000", acct.BusyNs)
	}
}

func TestCC0ResidencyExcludesSleep(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	eng.Schedule(100, func() { c.Sleep(CC6) })
	eng.Schedule(600, func() { c.Wake() })
	eng.Schedule(1000, func() {})
	eng.RunAll()
	acct := c.Snapshot()
	if acct.CC0Ns != 500 {
		t.Fatalf("CC0 residency = %d ns, want 500", acct.CC0Ns)
	}
}

func TestProcessorChipWideCoordination(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProcessor(XeonGold6134, eng, sim.NewRNG(1))
	p.ForceChipWide = true
	p.Request(0, 15)
	p.Request(1, 3) // fastest request wins chip-wide
	eng.RunAll()
	for _, c := range p.Cores {
		if c.PState() != 3 {
			t.Fatalf("core %d at P%d, want chip-wide P3", c.ID, c.PState())
		}
	}
}

func TestProcessorPerCoreIndependence(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProcessor(XeonGold6134, eng, sim.NewRNG(1))
	p.Request(0, 15)
	p.Request(1, 3)
	eng.RunAll()
	if p.Cores[0].PState() != 15 || p.Cores[1].PState() != 3 {
		t.Fatalf("per-core DVFS not independent: %d, %d",
			p.Cores[0].PState(), p.Cores[1].PState())
	}
}

func TestClassifyEndpointsRoundTrip(t *testing.T) {
	for _, m := range Models {
		for _, tc := range []TransitionClass{
			MaxToMaxMinus1, MaxMinus1ToMax, MaxToMin,
			MinToMax, MinPlus1ToMin, MinToMinPlus1,
		} {
			from, to := classEndpoints(m, tc)
			if got := m.Classify(from, to); got != tc {
				t.Errorf("%s: Classify(%d,%d) = %v, want %v", m.Name, from, to, got, tc)
			}
		}
	}
}

// Property: energy accounting is additive — settling at arbitrary
// intermediate points never changes the total.
func TestEnergyAdditivityProperty(t *testing.T) {
	f := func(splitsRaw []uint16) bool {
		eng, c := newTestCore(XeonGold6134)
		horizon := sim.Time(sim.Millisecond)
		for _, s := range splitsRaw {
			at := sim.Time(s) * horizon / 65536
			eng.At(at, func() { c.Snapshot() }) // forces a settle
		}
		eng.Run(horizon)
		oneShot := c.Snapshot().EnergyJ

		eng2, c2 := newTestCore(XeonGold6134)
		eng2.Run(horizon)
		ref := c2.Snapshot().EnergyJ
		return math.Abs(oneShot-ref) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureTable1ReproducesPaperMeans(t *testing.T) {
	// Spot-check two rows with small rep counts for speed.
	s := MeasureReTransition(XeonGold6134, MinToMax, 200, 42)
	if math.Abs(s.MeanUs-527.3) > 5 {
		t.Fatalf("Gold 6134 Pmin->Pmax re-transition %.1fµs, paper: 527.3µs", s.MeanUs)
	}
	s = MeasureReTransition(I76700, MinToMax, 200, 42)
	if math.Abs(s.MeanUs-45.1) > 3 {
		t.Fatalf("i7-6700 Pmin->Pmax re-transition %.1fµs, paper: 45.1µs", s.MeanUs)
	}
}

func TestMeasureTable2ReproducesPaperMeans(t *testing.T) {
	s := MeasureWakeup(XeonGold6134, CC6, 100, 7)
	if math.Abs(s.MeanUs-27.43) > 2 {
		t.Fatalf("Gold 6134 CC6 wake %.2fµs, paper: 27.43µs", s.MeanUs)
	}
	s = MeasureWakeup(I76700, CC1, 100, 7)
	if s.MeanUs > 1.5 {
		t.Fatalf("i7-6700 CC1 wake %.2fµs, paper: 0.35µs", s.MeanUs)
	}
}

func TestTransitionsCounted(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.SetPState(4)
	eng.RunAll()
	eng.Schedule(sim.Duration(5*sim.Millisecond), func() { c.SetPState(0) })
	eng.RunAll()
	if c.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", c.Transitions())
	}
}
