package cpu

import (
	"testing"

	"nmapsim/internal/sim"
)

// An offline core draws no power and accrues no CC0 residency; the
// accounting freezes at the crash instant and resumes on recovery.
func TestOfflineCoreDrawsNothing(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	eng.Schedule(sim.Duration(10*sim.Microsecond), func() { c.GoOffline() })
	eng.Run(sim.Time(10 * sim.Microsecond))
	at := c.Snapshot()
	eng.Run(sim.Time(1 * sim.Millisecond))
	after := c.Snapshot()
	if after.EnergyJ != at.EnergyJ {
		t.Fatalf("offline core burned %.9fJ", after.EnergyJ-at.EnergyJ)
	}
	if after.CC0Ns != at.CC0Ns {
		t.Fatalf("offline core accrued %dns of CC0 residency", after.CC0Ns-at.CC0Ns)
	}
	if !c.offline {
		t.Fatal("core does not report offline")
	}
}

// A core may only die from a settled state: an active Exec must be
// cancelled (failing its request into the ledger) before GoOffline.
func TestGoOfflineWithActiveExecPanics(t *testing.T) {
	_, c := newTestCore(XeonGold6134)
	c.StartExec(32000, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("GoOffline with an active Exec did not panic")
		}
	}()
	c.GoOffline()
}

// Dispatching work to a corpse is a kernel bug, not a recoverable
// condition: StartExec, Sleep and Wake all panic on an offline core.
func TestOfflineCoreRejectsWork(t *testing.T) {
	_, c := newTestCore(XeonGold6134)
	c.GoOffline()
	for name, fn := range map[string]func(){
		"StartExec": func() { c.StartExec(100, func() {}) },
		"Sleep":     func() { c.Sleep(CC6) },
		"Wake":      func() { c.Wake() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an offline core did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// SetPState is a silent no-op while offline (the governor may race the
// crash notification by one tick; the request must not take effect).
func TestSetPStateNoopWhileOffline(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.GoOffline()
	if d := c.SetPState(15); d != 0 {
		t.Fatalf("SetPState on offline core returned latency %v", d)
	}
	eng.RunAll()
	if c.PState() != 0 {
		t.Fatalf("offline core changed P-state to P%d", c.PState())
	}
}

// Recovery re-enters CC0 with cold private caches: the next execution
// pays the CC6-style flush penalty, and accounting resumes.
func TestGoOnlineChargesFlushPenalty(t *testing.T) {
	eng, c := newTestCore(XeonGold6134)
	c.GoOffline()
	c.GoOnline()
	if c.offline {
		t.Fatal("core still offline after GoOnline")
	}
	var doneAt sim.Time
	c.StartExec(3200, func() { doneAt = eng.Now() }) // 1µs of cycles at P0
	eng.RunAll()
	pen := sim.Duration(float64(XeonGold6134.CC6FlushPenalty) * XeonGold6134.CC6FlushFraction)
	want := sim.Time(sim.Microsecond + pen)
	if doneAt != want {
		t.Fatalf("first exec after recovery completed at %v, want %v (1µs + %v flush debt)",
			doneAt, want, pen)
	}
}

// The processor-level view: Offline removes the core from DVFS
// coordination (chip-wide coordination spans survivors only) and the
// population counters stay consistent through crash and recovery.
func TestProcessorOfflineExcludesFromDVFS(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProcessor(I76700, eng, sim.NewRNG(1)) // client part: chip-wide DVFS
	if p.OnlineCount() != len(p.Cores) || p.OfflineCount() != 0 {
		t.Fatalf("fresh processor: online=%d offline=%d", p.OnlineCount(), p.OfflineCount())
	}
	// Chip-wide best: core 0 asks for P0, everyone runs at P0.
	p.Request(0, 0)
	p.Request(1, 8)
	eng.RunAll()
	if p.Cores[1].PState() != 0 {
		t.Fatalf("chip-wide coordination broken: core 1 at P%d, want P0", p.Cores[1].PState())
	}
	// Kill core 0; the chip-wide best must now be recomputed over the
	// survivors, releasing them to the highest surviving request.
	p.Offline(0)
	if p.OnlineCount() != len(p.Cores)-1 || !p.IsOffline(0) {
		t.Fatalf("after Offline(0): online=%d IsOffline=%v", p.OnlineCount(), p.IsOffline(0))
	}
	p.Request(1, 8)
	eng.RunAll()
	if p.Cores[1].PState() != 8 {
		t.Fatalf("dead core still pins the chip-wide floor: core 1 at P%d, want P8",
			p.Cores[1].PState())
	}
	if p.Cores[0].PState() != 0 || !p.Cores[0].offline {
		t.Fatal("offline core received an applied P-state change")
	}
	p.Online(0)
	if p.OfflineCount() != 0 || p.Cores[0].offline {
		t.Fatal("Online did not restore the core")
	}
}
