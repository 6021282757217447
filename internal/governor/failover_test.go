package governor

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
)

// countingGov records which cores the stack asks for decisions; the
// decision itself is a fixed intermediate state so applied requests are
// visible against the P0 reset default.
type countingGov struct{ decided []int }

func (g *countingGov) Name() string { return "counting" }
func (g *countingGov) Decide(core int, _ UtilSample) int {
	g.decided = append(g.decided, core)
	return 8
}

func newFailoverStack(t *testing.T) (*sim.Engine, *cpu.Processor, *Stack, *countingGov) {
	t.Helper()
	eng := sim.NewEngine()
	proc := cpu.NewProcessor(cpu.XeonGold6134, eng, sim.NewRNG(1))
	g := &countingGov{}
	st := NewStack(eng, proc, g)
	return eng, proc, st, g
}

func decisionsFor(g *countingGov, core int) int {
	n := 0
	for _, c := range g.decided {
		if c == core {
			n++
		}
	}
	return n
}

// A dead core is neither sampled nor driven: after CoreOffline the
// stack stops issuing decisions for it while the survivors keep their
// 10ms cadence.
func TestStackCoreOfflineStopsDriving(t *testing.T) {
	eng, proc, st, g := newFailoverStack(t)
	st.Start()
	eng.Run(sim.Time(25 * sim.Millisecond))
	before := decisionsFor(g, 1)
	if before == 0 {
		t.Fatal("warmup ticks issued no decisions for core 1")
	}
	proc.Offline(1)
	st.CoreOffline(1)
	eng.Run(sim.Time(120 * sim.Millisecond))
	if got := decisionsFor(g, 1); got != before {
		t.Fatalf("stack drove offline core 1: %d decisions, had %d at crash", got, before)
	}
	if got := decisionsFor(g, 0); got < before+6 {
		t.Fatalf("survivor core 0 lost its cadence: %d decisions after 120ms", got)
	}
}

// Recovery must not read the outage as idleness: CoreOnline rebases the
// utilisation window to the recovery instant and issues an immediate
// decision so the core rejoins DVFS without waiting out a stale sample.
func TestStackCoreOnlineRebasesAndDecides(t *testing.T) {
	eng, proc, st, g := newFailoverStack(t)
	st.Start()
	eng.Run(sim.Time(25 * sim.Millisecond))
	proc.Offline(1)
	st.CoreOffline(1)
	eng.Run(sim.Time(120 * sim.Millisecond))
	atCrash := decisionsFor(g, 1)
	proc.Online(1)
	st.CoreOnline(1)
	if got := decisionsFor(g, 1); got != atCrash+1 {
		t.Fatalf("CoreOnline issued %d immediate decisions, want exactly 1", got-atCrash)
	}
	// CoreOnline on a core that never went offline is a no-op.
	live := decisionsFor(g, 0)
	st.CoreOnline(0)
	if got := decisionsFor(g, 0); got != live {
		t.Fatalf("CoreOnline on a live core issued %d spurious decisions", got-live)
	}
	eng.Run(sim.Time(155 * sim.Millisecond))
	if got := decisionsFor(g, 1); got <= atCrash+1 {
		t.Fatal("recovered core 1 never rejoined the sampling cadence")
	}
}

// An adoptive core inherits a dead sibling's flows: CoreAdopted restarts
// its decision from fresh counters (pre-failover utilisation history no
// longer predicts its load), but never touches an offline or suspended
// core.
func TestStackCoreAdoptedRefreshesCounters(t *testing.T) {
	eng, _, st, g := newFailoverStack(t)
	st.Start()
	eng.Run(sim.Time(25 * sim.Millisecond))
	before := decisionsFor(g, 0)
	st.CoreAdopted(0)
	if got := decisionsFor(g, 0); got != before+1 {
		t.Fatalf("CoreAdopted issued %d decisions, want exactly 1", got-before)
	}
	if st.prev[0].At != eng.Now() || st.lastU[0] != (UtilSample{}) {
		t.Fatalf("CoreAdopted did not rebase the utilisation window: from %v, last %+v", st.prev[0].At, st.lastU[0])
	}
	// Suspended (NMAP Network Intensive Mode) and offline cores are left
	// alone — adoption must not override either state machine.
	st.Suspend(0)
	mid := decisionsFor(g, 0)
	st.CoreAdopted(0)
	if got := decisionsFor(g, 0); got != mid {
		t.Fatal("CoreAdopted drove a suspended core")
	}
	st.CoreOffline(1)
	off := decisionsFor(g, 1)
	st.CoreAdopted(1)
	if got := decisionsFor(g, 1); got != off {
		t.Fatal("CoreAdopted drove an offline core")
	}
}
