package cpu

import (
	"fmt"
	"math"

	"nmapsim/internal/audit"
	"nmapsim/internal/sim"
)

// Exec represents one in-flight piece of work on a core, measured in
// cycles. The core converts cycles to time at its *current* frequency and
// transparently re-schedules the completion when the frequency changes
// mid-flight. Only one Exec may be active per core at a time; the kernel
// scheduler serialises work.
type Exec struct {
	core      *Core
	remaining float64 // cycles left at the last reschedule point
	done      func()
	ev        sim.Event
	since     sim.Time // when the current segment started
	freq      float64  // GHz during the current segment
	penalty   sim.Duration
	finished  bool
}

// Remaining returns the cycles left, accounting for progress in the
// current segment.
func (x *Exec) Remaining() float64 {
	if x.finished {
		return 0
	}
	elapsed := float64(x.core.eng.Now() - x.since)
	c := x.remaining - float64(elapsed*x.freq)
	if c < 0 {
		c = 0
	}
	return c
}

// Cancel preempts the execution, returning the cycles that had not yet
// been executed. The completion callback will not run. The record goes
// back to the core's free slot, so the caller must drop its *Exec
// immediately (as the kernel's preemption path does).
func (x *Exec) Cancel() float64 {
	if x.finished {
		return 0
	}
	rem := x.Remaining()
	x.finished = true
	x.ev.Cancel()
	x.core.settle()
	x.core.aud.ExecEnd(x.core.ID, x.core.energyJ)
	x.core.busy = false
	x.core.active = nil
	x.core.putExec(x)
	return rem
}

// execFire is the completion callback for every Exec, scheduled through
// ScheduleArg with the record itself as the argument — no per-execution
// closure is ever allocated.
func execFire(a any) {
	x := a.(*Exec)
	x.finished = true
	x.core.active = nil
	x.core.settle()
	x.core.aud.ExecEnd(x.core.ID, x.core.energyJ)
	x.core.busy = false
	done := x.done
	c := x.core
	x.done = nil
	defer c.putExec(x)
	done()
}

func (x *Exec) schedule() {
	dur := sim.Duration(math.Ceil(x.remaining/x.freq)) + x.penalty
	x.penalty = 0
	if dur < 1 {
		dur = 1
	}
	x.since = x.core.eng.Now()
	x.ev = x.core.eng.ScheduleArg(dur, execFire, x)
}

// reprice is called when the core frequency changes: bank the progress
// made at the old frequency and reschedule the remainder at the new one.
func (x *Exec) reprice(newFreq float64) {
	if x.finished {
		return
	}
	x.remaining = x.Remaining()
	x.ev.Cancel()
	x.freq = newFreq
	x.schedule()
}

// Core models one processor core: its P-state (with transition and
// re-transition latency), C-state, execution, and exact energy/residency
// accounting.
type Core struct {
	ID    int
	model *Model
	eng   *sim.Engine
	rng   *sim.RNG

	// P-state machinery.
	cur        int // operating point in effect
	pending    int // target of an in-flight transition (-1 if none)
	pendingEv  sim.Event
	lastEffect sim.Time // when the most recent transition took effect
	everSet    bool     // whether any transition has ever been issued

	// C-state machinery.
	cstate      CState
	busy        bool
	active      *Exec
	xfree       []*Exec      // spare Exec records (see getExec)
	wakePenalty sim.Duration // CC6 cache-refill debt charged to next Exec
	wakingUntil sim.Time     // end of the in-flight C-state exit (power accounting)
	// offline marks a hard-failed core: it draws no power, accrues no
	// CC0 residency, and may not execute, sleep, wake or change P-state
	// until Online brings it back.
	offline bool

	// Accounting (piecewise integration; lastAcct is the last instant at
	// which the accumulators were brought current).
	lastAcct   sim.Time
	energyJ    float64
	busyNs     int64
	cc0Ns      int64
	cc6Entries int64
	transCount int64

	// aud is the run's invariant auditor (nil = unaudited). Hooks fire
	// only at instants where settle() already ran, so the auditor reads
	// the freshly settled energy without perturbing the piecewise
	// integration order — audited physics stay byte-identical.
	aud *audit.Auditor

	// pwr caches the instantaneous power draw per (pstate, condition):
	// settle() runs on every execution boundary and C/P-state edge, and
	// the draw is a pure function of model constants, so the voltage/
	// frequency-ratio arithmetic is evaluated once per operating point at
	// construction (with the exact expressions power() used to compute
	// inline, keeping the accounting bit-identical) instead of on every
	// call.
	pwr []condPower
}

// condPower is a core's precomputed power draw at one operating point,
// one value per (cstate, busy, waking) condition power() can report.
type condPower struct {
	busy, idle, cc1, cc6, wake float64
}

// NewCore builds a core for the given model attached to the engine.
func NewCore(id int, m *Model, eng *sim.Engine, rng *sim.RNG) *Core {
	pp := m.Power
	vmax := m.PStates[0].Volt
	fmax := m.PStates[0].FreqGHz
	pwr := make([]condPower, len(m.PStates))
	for p, ps := range m.PStates {
		vr := ps.Volt / vmax
		fr := ps.FreqGHz / fmax
		uncore := float64(pp.UncoreDynW / float64(m.NumCores) * vr * vr * fr)
		dyn := float64(pp.DynW * vr * vr * fr)
		static := float64(pp.StaticW * vr)
		pwr[p] = condPower{
			busy: dyn + static + uncore,
			idle: float64(pp.IdleActivity*dyn) + static + uncore,
			cc1:  float64(pp.CC1W*vr) + uncore,
			cc6:  pp.CC6W + uncore,
			wake: pp.WakeW + uncore,
		}
	}
	return &Core{
		ID:      id,
		model:   m,
		eng:     eng,
		rng:     rng,
		cur:     0,
		pending: -1,
		cstate:  CC0,
		pwr:     pwr,
	}
}

// PState returns the operating point currently in effect.
func (c *Core) PState() int { return c.cur }

// PendingPState returns the in-flight transition target, or the current
// state if no transition is in flight.
func (c *Core) PendingPState() int {
	if c.pending >= 0 {
		return c.pending
	}
	return c.cur
}

// FreqGHz returns the effective clock in GHz (cycles per nanosecond).
func (c *Core) FreqGHz() float64 { return c.model.PStates[c.cur].FreqGHz }

// CStateNow returns the current sleep state.
func (c *Core) CStateNow() CState { return c.cstate }

// CC6Entries returns how many times the core has entered CC6. Unlike
// Snapshot it settles nothing, so an observer may read it at any
// instant without moving the energy integration.
func (c *Core) CC6Entries() int64 { return c.cc6Entries }

// Transitions returns the number of P-state transitions that have taken
// effect.
func (c *Core) Transitions() int64 { return c.transCount }

// power returns the instantaneous power draw in watts for the current
// (cstate, pstate, busy) condition, per the PowerParams model. The
// per-condition values come from the table precomputed in NewCore.
func (c *Core) power() float64 {
	if c.offline {
		return 0
	}
	pw := &c.pwr[c.cur]
	if c.eng.Now() <= c.wakingUntil {
		return pw.wake
	}
	switch c.cstate {
	case CC1:
		return pw.cc1
	case CC6:
		return pw.cc6
	}
	if c.busy {
		return pw.busy
	}
	return pw.idle
}

// settle brings the energy and residency accumulators current.
func (c *Core) settle() {
	now := c.eng.Now()
	dt := now - c.lastAcct
	if dt <= 0 {
		c.lastAcct = now
		return
	}
	c.energyJ += float64(c.power() * float64(dt) * 1e-9)
	if c.busy {
		c.busyNs += int64(dt)
	}
	if c.cstate == CC0 && !c.offline {
		c.cc0Ns += int64(dt)
	}
	c.lastAcct = now
}

// GoOffline hard-fails the core. The teardown is C-state-legal: a core
// may only die from a settled state, so the caller (the kernel's crash
// path) must have cancelled any in-flight Exec first — cancelled work
// fails into the request ledger, it never vanishes. Any in-flight
// P-state transition or C-state exit is abandoned; from this instant
// the core draws no power and accrues no CC0 residency.
func (c *Core) GoOffline() {
	if c.offline {
		return
	}
	if c.active != nil {
		panic("cpu: GoOffline while an Exec is active (cancel it first)")
	}
	c.settle()
	c.aud.CoreOffline(c.ID, int(c.cstate), c.energyJ)
	c.busy = false
	c.pendingEv.Cancel()
	c.pending = -1
	c.wakePenalty = 0
	c.wakingUntil = 0
	c.cstate = CC0
	c.offline = true
}

// GoOnline brings a hard-failed core back: it re-enters CC0 awake with
// cold private caches, so the CC6-style cache-refill debt is charged to
// its next execution.
func (c *Core) GoOnline() {
	if !c.offline {
		return
	}
	c.settle()
	c.offline = false
	c.aud.CoreOnline(c.ID, c.energyJ)
	pen := sim.Duration(float64(c.model.CC6FlushPenalty) * c.model.CC6FlushFraction)
	c.wakePenalty += pen
}

// Acct is a snapshot of a core's cumulative accounting counters.
type Acct struct {
	EnergyJ    float64
	BusyNs     int64
	CC0Ns      int64
	CC6Entries int64
	At         sim.Time
}

// Snapshot settles and returns the cumulative counters; governors diff
// successive snapshots to compute utilisation over their sampling window.
func (c *Core) Snapshot() Acct {
	c.settle()
	return Acct{
		EnergyJ:    c.energyJ,
		BusyNs:     c.busyNs,
		CC0Ns:      c.cc0Ns,
		CC6Entries: c.cc6Entries,
		At:         c.eng.Now(),
	}
}

// SetPState requests a transition to operating point p. The new point
// takes effect after the ACPI latency if the core has been settled, or
// after the model's re-transition latency if a transition took effect (or
// is still in flight) within the settle window — the §5.1 behaviour.
// It returns the latency charged (0 for a no-op request).
func (c *Core) SetPState(p int) sim.Duration {
	if p < 0 || p >= len(c.model.PStates) {
		panic(fmt.Sprintf("cpu: P-state %d out of range for %s", p, c.model.Name))
	}
	if c.offline {
		// A dead core holds no voltage: the request is dropped here and
		// the coordination rule re-applies the recorded targets when the
		// core comes back online.
		return 0
	}
	if c.pending == p || (c.pending < 0 && c.cur == p) {
		return 0
	}
	now := c.eng.Now()
	var lat sim.Duration
	recent := c.everSet && now-c.lastEffect < sim.Time(c.model.SettleWindow)
	if c.pending >= 0 || recent {
		lat = c.model.ReTransLatency(c.cur, p, c.rng)
	} else {
		lat = c.model.ACPILatency
	}
	c.pendingEv.Cancel()
	c.pending = p
	c.pendingEv = c.eng.Schedule(lat, func() {
		c.settle()
		c.cur = p
		c.pending = -1
		c.pendingEv = sim.Event{}
		c.lastEffect = c.eng.Now()
		c.everSet = true
		c.transCount++
		c.aud.PStateApplied(c.ID, p, c.energyJ)
		if c.active != nil {
			c.active.reprice(c.FreqGHz())
		}
	})
	return lat
}

// StartExec begins executing cycles of work at the core's effective
// frequency, invoking done on completion. Exactly one Exec may be in
// flight; the caller (the kernel scheduler) enforces serialisation.
func (c *Core) StartExec(cycles float64, done func()) *Exec {
	if c.active != nil {
		panic("cpu: StartExec while another Exec is active")
	}
	if c.offline {
		panic("cpu: StartExec on an offline core")
	}
	if c.cstate != CC0 {
		panic("cpu: StartExec while core is sleeping")
	}
	c.settle()
	c.aud.ExecStart(c.ID, c.energyJ)
	c.busy = true
	x := c.getExec()
	x.remaining = cycles
	x.done = done
	x.freq = c.FreqGHz()
	x.penalty = c.wakePenalty
	c.wakePenalty = 0
	c.active = x
	x.schedule()
	return x
}

// getExec takes a spare Exec record off the core's free list, or mints
// one. A core has at most one execution in flight, but a completion
// callback usually starts the next execution before the fired record is
// parked, so the list settles at two records per core.
func (c *Core) getExec() *Exec {
	if n := len(c.xfree); n > 0 {
		x := c.xfree[n-1]
		c.xfree[n-1] = nil
		c.xfree = c.xfree[:n-1]
		x.finished = false
		x.ev = sim.Event{}
		return x
	}
	return &Exec{core: c}
}

// putExec parks a finished or cancelled record for reuse.
func (c *Core) putExec(x *Exec) {
	x.done = nil
	c.xfree = append(c.xfree, x)
}

// Idle marks the core idle in CC0 (no Exec in flight, clock running).
func (c *Core) Idle() {
	c.settle()
	c.busy = false
}

// Sleep puts the core into the given C-state. Only legal when no Exec is
// active. Entering CC6 increments the CC6-entry counter and arms the
// cache-refill debt for the next execution after wake-up.
func (c *Core) Sleep(s CState) {
	if c.active != nil {
		panic("cpu: Sleep while an Exec is active")
	}
	if c.offline {
		panic("cpu: Sleep on an offline core")
	}
	c.settle()
	c.aud.CStateSleep(c.ID, int(s), c.energyJ)
	c.busy = false
	if s == CC6 && c.cstate != CC6 {
		c.cc6Entries++
	}
	c.cstate = s
}

// Wake transitions the core back to CC0 and returns the wake-up latency
// the caller must wait before dispatching work. Waking from CC6 also arms
// the cache-refill penalty charged to the next Exec (§5.2).
func (c *Core) Wake() sim.Duration {
	if c.offline {
		panic("cpu: Wake on an offline core")
	}
	if c.cstate == CC0 {
		return 0
	}
	c.settle()
	c.aud.CStateWake(c.ID, int(c.cstate), c.energyJ)
	lat := c.model.WakeLatency(c.cstate, c.rng)
	if c.cstate == CC6 {
		pen := sim.Duration(float64(c.model.CC6FlushPenalty) * c.model.CC6FlushFraction)
		c.wakePenalty += pen
	}
	c.cstate = CC0
	// The exit transition itself draws WakeW until it completes; the
	// kernel dispatches work exactly at that boundary, so the piecewise
	// integration bills the window at the transition power.
	c.wakingUntil = c.eng.Now() + sim.Time(lat)
	return lat
}
