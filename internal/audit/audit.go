// Package audit implements the run-time invariant auditor: an opt-in,
// zero-alloc oracle wired through every layer of the datapath
// (sim/nic/kernel/cpu/governor/server) that checks the conservation
// laws the simulation's physics must obey — at event granularity while
// the run executes, and as a set of closed-form identities at run end.
//
// The audited laws (see docs/MODEL.md, "Invariants"):
//
//   - Packet conservation: every request copy the client sends is
//     accounted for — lost on the wire, dropped on ring or socket-queue
//     overflow, still in flight, or delivered; the Tx path mirrors it
//     segment by segment.
//   - Cycle accounting: the per-core busy/CC0 residency the auditor
//     reconstructs from exec and C-state transitions matches the core's
//     own piecewise integration exactly, and C-state residencies sum to
//     elapsed time.
//   - Energy sanity: per-core energy is monotone at every observed
//     transition, and package energy is bounded by the all-cores-busy
//     P0 power times elapsed time.
//   - NAPI/C-state/P-state legality: only the transitions the state
//     machines in kernel.go, idle.go and cpufreq.go permit (no poll
//     pass without a scheduled context, no wake from a state never
//     entered, no operating point outside the model's table).
//   - Event-time monotonicity and watchdog coherence on the engine.
//   - The client request ledger identity (RequestAccounting).
//
// On violation the auditor records a structured Violation (rule,
// sim-time, core, detail) instead of panicking; the hot-path hooks are
// branch-only and allocation-free so an audited run is byte-identical
// in physics to an unaudited one. Every hook is nil-receiver-safe: a
// nil *Auditor is the disabled auditor and costs one predicted branch.
package audit

import (
	"errors"
	"fmt"
	"strings"

	"nmapsim/internal/sim"
)

// Rule names one audited invariant family.
type Rule string

// The audited rules, in report order.
const (
	RulePacketConservation Rule = "packet-conservation"
	RuleCycleAccounting    Rule = "cycle-accounting"
	RuleEnergySanity       Rule = "energy-sanity"
	RuleCStateLegality     Rule = "cstate-legality"
	RulePStateLegality     Rule = "pstate-legality"
	RuleNAPILegality       Rule = "napi-legality"
	RuleTimeMonotonic      Rule = "time-monotonic"
	RuleWatchdogCoherence  Rule = "watchdog-coherence"
	RuleRequestAccounting  Rule = "request-accounting"
	RuleFailureDomain      Rule = "failure-domain"
)

// Internal rule indices: hot-path counters index a fixed array rather
// than hashing the rule name per event.
const (
	rPacket = iota
	rCycle
	rEnergy
	rCState
	rPState
	rNAPI
	rTime
	rWatchdog
	rLedger
	rFailure
	numRules
)

var ruleNames = [numRules]Rule{
	rPacket:   RulePacketConservation,
	rCycle:    RuleCycleAccounting,
	rEnergy:   RuleEnergySanity,
	rCState:   RuleCStateLegality,
	rPState:   RulePStateLegality,
	rNAPI:     RuleNAPILegality,
	rTime:     RuleTimeMonotonic,
	rWatchdog: RuleWatchdogCoherence,
	rLedger:   RuleRequestAccounting,
	rFailure:  RuleFailureDomain,
}

// Leg names one packet-ledger counter: a point on the request or
// response path where the auditor counts copies on its own, to balance
// against every other leg and the models' books at Finalize.
type Leg uint8

// The ledger legs, request direction then response, then the
// hard-fault legs. Every leg counts toward packet conservation except
// Shed, which counts toward request accounting.
const (
	ClientSend     Leg = iota // copies the client transmitted (first + retries)
	WireDropReq               // request copies lost on the wire
	NICDeliver                // copies handed to NIC DMA
	RingAccept                // copies landed in an Rx ring
	RingDrop                  // copies dropped on ring overflow
	Polled                    // copies drained from rings by poll passes
	SockEnq                   // copies enqueued to a socket queue
	SockDrop                  // copies dropped on socket-queue overflow
	AppStart                  // requests dequeued by the app thread
	AppDone                   // requests the app thread finished
	txOps                     // responses handed to the NIC (TxStart)
	txSegsSched               // segments scheduled by Transmit (TxStart)
	txSegs                    // segments that left the wire (TxSegments)
	TxCleaned                 // Tx completions reaped by poll passes
	TxDone                    // responses whose last segment left the NIC
	WireDropResp              // response copies lost on the wire
	RespSched                 // response copies on the return traversal
	RespArrived               // response copies that reached the client
	RingCrashFail             // ring packets failed when their queue's core died
	RingOutageFail            // packets failed landing during a total NIC outage
	CrashPollFail             // mid-poll batch payloads failed by a core crash
	CrashAppFail              // app-held requests failed by a core crash
	CrashSockFail             // migrated requests failed on adoptive-queue overflow
	Shed                      // requests refused by the admission controller
	numLegs
)

// Violation is one recorded invariant breach.
type Violation struct {
	// Rule names the invariant family that was violated.
	Rule Rule `json:"rule"`
	// Time is the simulated instant the violation was detected (the
	// run-end instant for the closed-form identities).
	Time sim.Time `json:"sim_time_ns"`
	// Core is the core (== RSS queue) the violation concerns, or -1 for
	// a global/package-level invariant.
	Core int `json:"core"`
	// Detail states the violated identity with the observed counters.
	Detail string `json:"detail"`
}

// Error renders the violation; Violation satisfies the error interface
// so a single breach can surface directly as a run error.
func (v Violation) Error() string {
	if v.Core >= 0 {
		return fmt.Sprintf("audit: %s violated at %v on core %d: %s", v.Rule, v.Time, v.Core, v.Detail)
	}
	return fmt.Sprintf("audit: %s violated at %v: %s", v.Rule, v.Time, v.Detail)
}

// RuleStat is the per-rule check/violation tally of one run.
type RuleStat struct {
	Rule       Rule   `json:"rule"`
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// Report is the end-of-run audit summary carried on server.Result.
type Report struct {
	// Rules tallies every rule in report order, including clean ones —
	// a rule with zero checks was never exercised, which is itself
	// signal (e.g. no C-state was ever entered under idle=disable).
	Rules []RuleStat `json:"rules"`
	// Violations holds the first maxDetail recorded breaches in
	// detection order; Total counts all of them.
	Violations []Violation `json:"violations,omitempty"`
	Total      uint64      `json:"total_violations"`
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return r != nil && r.Total > 0 }

// Err returns nil for a clean report, or an error carrying the first
// violation and the total count.
func (r *Report) Err() error {
	if !r.Failed() {
		return nil
	}
	first := r.Violations[0]
	if r.Total == 1 {
		return first
	}
	return fmt.Errorf("%w (and %d more violations)", first, r.Total-1)
}

// String renders the per-rule counter summary (the -audit-report table).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %10s\n", "rule", "checks", "violations")
	for _, rs := range r.Rules {
		fmt.Fprintf(&b, "%-22s %12d %10d\n", rs.Rule, rs.Checks, rs.Violations)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  ! %v\n", v)
	}
	return b.String()
}

// Merge folds another run's report into r: per-rule tallies are summed
// (matched by rule name, so reports from different builds still merge)
// and the violation log is appended up to the detail cap. Used by the
// experiment harness to aggregate a whole sweep into one -audit-report
// table.
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	for _, os := range other.Rules {
		found := false
		for i := range r.Rules {
			if r.Rules[i].Rule == os.Rule {
				r.Rules[i].Checks += os.Checks
				r.Rules[i].Violations += os.Violations
				found = true
				break
			}
		}
		if !found {
			r.Rules = append(r.Rules, os)
		}
	}
	for _, v := range other.Violations {
		if len(r.Violations) >= maxDetail {
			break
		}
		r.Violations = append(r.Violations, v)
	}
	r.Total += other.Total
}

// Clone returns a deep copy (the harness hands out snapshots of its
// running tally without racing later merges).
func (r *Report) Clone() *Report {
	if r == nil {
		return nil
	}
	cp := &Report{Total: r.Total}
	cp.Rules = append(cp.Rules, r.Rules...)
	cp.Violations = append(cp.Violations, r.Violations...)
	return cp
}

// C-state indices used by the per-core mirror (match cpu.CC0/CC1/CC6).
// stOff is the mirror-only fourth state: a hard-failed core is in none
// of the architectural C-states, and every applied action observed
// while the mirror sits here is a failure-domain violation.
const (
	stCC0 = 0
	stCC1 = 1
	stCC6 = 2
	stOff = 3
)

// NAPI mirror states.
const (
	napiIdle = iota
	napiScheduled
	napiKsoftirqd
)

var napiNames = [...]string{"idle", "softirq-scheduled", "ksoftirqd"}

// coreAudit is the auditor's independent mirror of one core's state
// machines. It is advanced only by the hook calls, never by reading the
// model's own fields, so bookkeeping drift between the two is exactly
// what gets detected.
type coreAudit struct {
	// C-state mirror and residency integration (index 3 = offline).
	cstate  int
	lastC   sim.Time
	resid   [4]int64
	entered [3]bool
	cc6     int64

	// P-state transition count (the applied-effect events).
	transitions int64

	// Exec mirror for busy-time integration.
	busy      bool
	busyStart sim.Time
	busyNs    int64

	// NAPI context mirror.
	napi int

	// Last observed per-core cumulative energy (monotonicity).
	lastEnergyJ float64
}

// Auditor is the run-scoped invariant checker. Attach one per run via
// the components' SetAuditor methods before the run starts. All methods
// are nil-receiver-safe; a nil auditor audits nothing.
type Auditor struct {
	eng   *sim.Engine
	cores int
	maxP  int
	// boundW is the package-level power ceiling (all cores busy at P0
	// plus uncore) used by the energy-sanity bound.
	boundW float64

	checks [numRules]uint64
	vcount [numRules]uint64
	total  uint64
	// violations keeps the first maxDetail breaches with full detail.
	violations []Violation

	pc []coreAudit

	// ledger is the packet ledger: one count per leg, advanced by Count,
	// TxStart and TxSegments (and skewed by CorruptPacketCounterForTest).
	ledger [numLegs]uint64

	// coreOffline and coreOnline count the offline/online transitions
	// the mirror observed.
	coreOffline, coreOnline uint64

	// lastNow is the highest engine clock reading observed across the
	// per-core hooks — the time-monotonicity probe. Watching from the
	// hooks keeps the engine's own dispatch path free of any check.
	lastNow sim.Time

	finalized bool
	report    *Report
}

// maxDetail bounds the violations kept with full detail; the counters
// keep counting past it.
const maxDetail = 32

// New builds an auditor for a run on eng over the given core count.
// maxP is the model's slowest valid operating-point index and boundW
// the package power ceiling for the energy-sanity bound (<= 0 disables
// that one check).
func New(eng *sim.Engine, cores, maxP int, boundW float64) *Auditor {
	a := &Auditor{eng: eng, cores: cores, maxP: maxP, boundW: boundW}
	a.pc = make([]coreAudit, cores)
	return a
}

// violate records one breach. Only violating paths reach it, so the
// fmt.Sprintf allocation never happens on a clean run.
func (a *Auditor) violate(rule, core int, format string, args ...any) {
	a.vcount[rule]++
	a.total++
	if len(a.violations) < maxDetail {
		a.violations = append(a.violations, Violation{
			Rule:   ruleNames[rule],
			Time:   a.eng.Now(),
			Core:   core,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Violations returns the breaches recorded so far (detail-capped).
// Mid-run callers (tests) use it; harness code should Finalize instead.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// TotalViolations returns the number of breaches recorded so far.
func (a *Auditor) TotalViolations() uint64 {
	if a == nil {
		return 0
	}
	return a.total
}

// CorruptPacketCounterForTest skews the RingAccept ledger leg by delta
// so tests can prove a corrupted ledger is caught and reported as a
// structured Violation: the ring leg has an exact closed-form identity,
// so any non-zero skew must surface at Finalize.
// Never call it outside a test.
func (a *Auditor) CorruptPacketCounterForTest(delta uint64) {
	if a == nil {
		return
	}
	a.ledger[RingAccept] += delta
}

// ---- packet ledger -----------------------------------------------------

// Count records n copies passing leg: one check of the leg's rule and n
// on the leg's count.
func (a *Auditor) Count(leg Leg, n int) {
	if a == nil {
		return
	}
	if leg == Shed {
		a.checks[rLedger]++
	} else {
		a.checks[rPacket]++
	}
	a.ledger[leg] += uint64(n)
}

// TxStart records a response handed to the NIC as segments MTU segments.
func (a *Auditor) TxStart(segments int) {
	if a == nil {
		return
	}
	a.checks[rPacket]++
	a.ledger[txOps]++
	a.ledger[txSegsSched] += uint64(segments)
}

// TxSegments records n segments leaving the wire. The NIC posts the
// segments it never dispatches as events in batches, so the tally is
// one check per segment, however they were grouped.
func (a *Auditor) TxSegments(n int) {
	if a == nil {
		return
	}
	a.checks[rPacket] += uint64(n)
	a.ledger[txSegs] += uint64(n)
}

// TxLedger is a snapshot of the response-direction counters and the
// packet rule's check count, for differential tests of the NIC.
type TxLedger struct {
	Ops, SegsScheduled, Segs, Cleaned, Done, PacketChecks uint64
}

// TxLedger returns the auditor's response-direction counters so far
// (zero for a nil auditor).
func (a *Auditor) TxLedger() TxLedger {
	if a == nil {
		return TxLedger{}
	}
	l := &a.ledger
	return TxLedger{
		Ops: l[txOps], SegsScheduled: l[txSegsSched], Segs: l[txSegs],
		Cleaned: l[TxCleaned], Done: l[TxDone], PacketChecks: a.checks[rPacket],
	}
}

// offlineGuard checks that an applied action is not happening on a core
// whose mirror says it is hard-failed. Called from every applied-effect
// hook; governor *requests* targeting an offline core are deliberately
// not violations (non-failure-aware policies keep requesting, and the
// processor is the layer that must refuse to apply).
func (a *Auditor) offlineGuard(core int, what string) {
	a.checks[rFailure]++
	if a.pc[core].cstate == stOff {
		a.violate(rFailure, core, "%s on an offline core", what)
	}
}

// ---- hard-fault hooks ----------------------------------------------------

// NAPIOrphan records a crash tearing down core's live NAPI context;
// legal only while a context actually exists.
func (a *Auditor) NAPIOrphan(core int) {
	if a == nil {
		return
	}
	a.checks[rNAPI]++
	pc := &a.pc[core]
	if pc.napi == napiIdle {
		a.violate(rNAPI, core, "napi context orphaned with no session in progress")
	}
	pc.napi = napiIdle
}

// CoreOffline records core hard-failing. fromC is the C-state the core
// believes it died from — cross-checked against the mirror — and the
// teardown is legal only from a settled state: no exec in flight, not
// already offline.
func (a *Auditor) CoreOffline(core, fromC int, energyJ float64) {
	if a == nil {
		return
	}
	a.checks[rFailure]++
	pc := &a.pc[core]
	now := a.eng.Now()
	if pc.busy {
		a.violate(rFailure, core, "core went offline with an exec in flight")
	}
	if pc.cstate == stOff {
		a.violate(rFailure, core, "core went offline while already offline")
	} else if pc.cstate != fromC {
		a.violate(rFailure, core, "core reports dying from C%d but the audited state is C%d",
			sleepName(fromC), sleepName(pc.cstate))
	}
	pc.resid[pc.cstate] += int64(now - pc.lastC)
	pc.lastC = now
	pc.cstate = stOff
	pc.napi = napiIdle
	a.coreOffline++
	a.energyAt(core, energyJ)
}

// CoreOnline records core recovering from a hard fault; legal only from
// the offline state, and the core comes back settled in CC0.
func (a *Auditor) CoreOnline(core int, energyJ float64) {
	if a == nil {
		return
	}
	a.checks[rFailure]++
	pc := &a.pc[core]
	now := a.eng.Now()
	if pc.cstate != stOff {
		a.violate(rFailure, core, "core came online from C%d, not from offline", sleepName(pc.cstate))
	}
	pc.resid[pc.cstate] += int64(now - pc.lastC)
	pc.lastC = now
	pc.cstate = stCC0
	a.coreOnline++
	a.energyAt(core, energyJ)
}

// ---- kernel hooks --------------------------------------------------------

// NAPISchedule records the hardirq handler scheduling the softirq on
// core. Legal only from the idle NAPI context (the IRQ is masked while
// a poll session runs).
func (a *Auditor) NAPISchedule(core int) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "softirq scheduled")
	a.checks[rNAPI]++
	pc := &a.pc[core]
	if pc.napi != napiIdle {
		a.violate(rNAPI, core, "softirq scheduled from %s (IRQ should be masked)", napiNames[pc.napi])
	}
	pc.napi = napiScheduled
}

// NAPIFold records a hardirq landing while ksoftirqd owns the context
// (the fold branch); legal only in the ksoftirqd state.
func (a *Auditor) NAPIFold(core int) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "hardirq fold")
	a.checks[rNAPI]++
	pc := &a.pc[core]
	if pc.napi != napiKsoftirqd {
		a.violate(rNAPI, core, "hardirq folded into NAPI context from %s", napiNames[pc.napi])
	}
}

// NAPIPoll records one poll pass starting on core; legal only while a
// softirq or ksoftirqd context owns the queue.
func (a *Auditor) NAPIPoll(core int) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "poll pass")
	a.checks[rNAPI]++
	if pc := &a.pc[core]; pc.napi == napiIdle {
		a.violate(rNAPI, core, "poll pass with no NAPI context scheduled")
	}
}

// NAPIMigrate records the softirq handing the context to ksoftirqd.
func (a *Auditor) NAPIMigrate(core int) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "ksoftirqd migration")
	a.checks[rNAPI]++
	pc := &a.pc[core]
	if pc.napi != napiScheduled {
		a.violate(rNAPI, core, "ksoftirqd migration from %s", napiNames[pc.napi])
	}
	pc.napi = napiKsoftirqd
}

// NAPIComplete records the poll session ending (ring empty, IRQ
// re-enabled).
func (a *Auditor) NAPIComplete(core int) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "napi complete")
	a.checks[rNAPI]++
	pc := &a.pc[core]
	if pc.napi == napiIdle {
		a.violate(rNAPI, core, "napi complete with no session in progress")
	}
	pc.napi = napiIdle
}

// ---- CPU hooks -----------------------------------------------------------

// observeNow advances the time-monotonicity probe: the engine clock as
// seen across audited instants must never regress. Probing from the
// hooks keeps the engine's own dispatch loop free of any per-event
// check.
func (a *Auditor) observeNow() {
	now := a.eng.Now()
	a.checks[rTime]++
	if now < a.lastNow {
		a.violate(rTime, -1, "engine clock regressed %v -> %v", a.lastNow, now)
		return
	}
	a.lastNow = now
}

// energyAt checks per-core energy monotonicity at an instant where the
// core's integrator has just settled.
func (a *Auditor) energyAt(core int, energyJ float64) {
	a.observeNow()
	a.checks[rEnergy]++
	pc := &a.pc[core]
	if energyJ < pc.lastEnergyJ {
		a.violate(rEnergy, core, "cumulative energy regressed %.9gJ -> %.9gJ", pc.lastEnergyJ, energyJ)
	}
	pc.lastEnergyJ = energyJ
}

// ExecStart records an execution starting on core; energyJ is the
// core's settled cumulative energy at this instant.
func (a *Auditor) ExecStart(core int, energyJ float64) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "exec started")
	a.checks[rCycle]++
	pc := &a.pc[core]
	if pc.busy {
		a.violate(rCycle, core, "exec started while another exec is running")
	}
	if pc.cstate != stCC0 {
		a.violate(rCycle, core, "exec started while core is in C%d", sleepName(pc.cstate))
	}
	pc.busy = true
	pc.busyStart = a.eng.Now()
	a.energyAt(core, energyJ)
}

// ExecEnd records an execution completing or being preempted on core.
func (a *Auditor) ExecEnd(core int, energyJ float64) {
	if a == nil {
		return
	}
	a.checks[rCycle]++
	pc := &a.pc[core]
	if !pc.busy {
		a.violate(rCycle, core, "exec ended with no exec in flight")
	} else {
		pc.busyNs += int64(a.eng.Now() - pc.busyStart)
	}
	pc.busy = false
	a.energyAt(core, energyJ)
}

// sleepName maps the mirror index back to the hardware C-state number
// for messages (0→0, 1→1, 2→6).
func sleepName(st int) int {
	if st == stCC6 {
		return 6
	}
	return st
}

// CStateSleep records core entering sleep state st (1=CC1, 2=CC6);
// legal only from CC0 with no exec in flight.
func (a *Auditor) CStateSleep(core, st int, energyJ float64) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "C-state entry")
	a.checks[rCState]++
	pc := &a.pc[core]
	now := a.eng.Now()
	if st < stCC1 || st > stCC6 {
		a.violate(rCState, core, "sleep to unknown C-state index %d", st)
		a.energyAt(core, energyJ)
		return
	}
	if pc.busy {
		a.violate(rCState, core, "entered C%d while an exec is in flight", sleepName(st))
	}
	if pc.cstate != stCC0 {
		a.violate(rCState, core, "entered C%d directly from C%d (no intervening wake)",
			sleepName(st), sleepName(pc.cstate))
	}
	pc.resid[pc.cstate] += int64(now - pc.lastC)
	pc.lastC = now
	pc.cstate = st
	pc.entered[st] = true
	if st == stCC6 {
		pc.cc6++
	}
	a.energyAt(core, energyJ)
}

// CStateWake records core waking from sleep state from; legal only when
// the mirror agrees the core is in that state and has entered it.
func (a *Auditor) CStateWake(core, from int, energyJ float64) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "C-state wake")
	a.checks[rCState]++
	pc := &a.pc[core]
	now := a.eng.Now()
	if from < stCC1 || from > stCC6 {
		a.violate(rCState, core, "wake from unknown C-state index %d", from)
		a.energyAt(core, energyJ)
		return
	}
	if !pc.entered[from] {
		a.violate(rCState, core, "wake from C%d, a state this core never entered", sleepName(from))
	}
	if pc.cstate != from {
		a.violate(rCState, core, "wake from C%d but the audited state is C%d",
			sleepName(from), sleepName(pc.cstate))
	}
	pc.resid[pc.cstate] += int64(now - pc.lastC)
	pc.lastC = now
	pc.cstate = stCC0
	a.energyAt(core, energyJ)
}

// PStateApplied records a P-state transition taking effect on core.
func (a *Auditor) PStateApplied(core, p int, energyJ float64) {
	if a == nil {
		return
	}
	a.offlineGuard(core, "P-state transition applied")
	a.checks[rPState]++
	pc := &a.pc[core]
	if p < 0 || p > a.maxP {
		a.violate(rPState, core, "operating point P%d outside the model's table [P0, P%d]", p, a.maxP)
	}
	pc.transitions++
	a.energyAt(core, energyJ)
}

// GovernorRequest checks a policy's requested operating point before
// the processor records it. It reports whether the request is legal;
// on an illegal request the violation is recorded and the caller must
// drop the request instead of panicking. A nil auditor admits
// everything (the unaudited behaviour: cpu.Core panics downstream).
func (a *Auditor) GovernorRequest(core, p int) bool {
	if a == nil {
		return true
	}
	a.checks[rPState]++
	if p < 0 || p > a.maxP {
		a.violate(rPState, core, "policy requested P%d outside the model's table [P0, P%d]", p, a.maxP)
		return false
	}
	return true
}

// ---- run end -------------------------------------------------------------

// Final carries the end-of-run state the auditor cannot observe through
// its own hooks: datapath residuals, the client ledger, the model's own
// cumulative counters to cross-check the mirrors against, and energy.
type Final struct {
	// Residuals: work legitimately still inside the datapath when the
	// clock stopped.
	RingResidual      uint64 // Σ Rx-ring occupancy
	PollResidual      uint64 // polled batches still being charged for
	SockQResidual     uint64 // Σ socket-queue depth
	AppResidual       uint64 // requests held by app threads
	TxPendingResidual uint64 // Σ uncleaned Tx completions

	// Client ledger (RequestAccounting, with InFlight already set).
	Issued, Completed, Retransmits, TimedOut, Lost, Shed, InFlight uint64

	// Cross-check counters from the models' own books.
	KernelCompleted uint64 // Σ kernel Counters().Completed
	NICDrops        uint64 // NIC TotalDrops
	KernelSockDrops uint64 // Σ kernel Counters().SockDrops
	FaultWireDrops  uint64 // faults.Stats.WireDrops

	// Hard-fault cross-checks from the models' own books.
	CrashRingFails   uint64 // NIC TotalCrashFails
	NICOutageFails   uint64 // NIC TotalOutageFails
	KernelCrashFails uint64 // Σ kernel Counters().CrashFails
	OfflineCores     uint64 // cores offline at the finalize instant
	CoreCrashes      uint64 // faults.Stats.CoreCrashes
	CoreRecoveries   uint64 // faults.Stats.CoreRecoveries

	// Per-core cumulative counters from cpu.Core snapshots taken at the
	// finalize instant.
	CoreBusyNs  []int64
	CoreCC0Ns   []int64
	CoreCC6     []int64
	CoreTrans   []int64
	CoreEnergyJ []float64

	// Package energy at finalize and at warmup end.
	PackageEnergyJ  float64
	BaselineEnergyJ float64
}

// check runs one closed-form identity at finalize time.
func (a *Auditor) check(rule, core int, ok bool, format string, args ...any) {
	a.checks[rule]++
	if !ok {
		a.violate(rule, core, format, args...)
	}
}

// Finalize settles the mirrors, evaluates every end-of-run identity and
// returns the report. It is idempotent: the first call computes the
// report, later calls return it unchanged.
func (a *Auditor) Finalize(f Final) *Report {
	if a == nil {
		return nil
	}
	if a.finalized {
		return a.report
	}
	a.finalized = true
	now := a.eng.Now()

	// Packet conservation, request direction. Copies can legitimately be
	// mid-flight on the network and DMA legs when the clock stops (the
	// run ends at a fixed horizon with events still queued), so those
	// two residuals are derived and checked for non-negativity; every
	// leg with an observable occupancy is exact.
	l := &a.ledger
	a.check(rPacket, -1, l[ClientSend] >= l[WireDropReq]+l[NICDeliver],
		"more copies reached DMA than the client sent: %d + %d > %d", l[WireDropReq], l[NICDeliver], l[ClientSend])
	a.check(rPacket, -1, l[NICDeliver] >= l[RingAccept]+l[RingDrop]+l[RingOutageFail],
		"ring accepted+dropped+outage-failed (%d+%d+%d) exceeds DMA-delivered (%d)",
		l[RingAccept], l[RingDrop], l[RingOutageFail], l[NICDeliver])
	a.check(rPacket, -1, l[RingAccept] == l[Polled]+l[RingCrashFail]+f.RingResidual,
		"ring accepted != polled + crash-failed + ring residual: %d != %d + %d + %d",
		l[RingAccept], l[Polled], l[RingCrashFail], f.RingResidual)
	a.check(rPacket, -1, l[Polled] == l[SockEnq]+l[SockDrop]+l[CrashPollFail]+f.PollResidual,
		"polled != sockq-enqueued + sockq-dropped + crash-failed + in-poll residual: %d != %d + %d + %d + %d",
		l[Polled], l[SockEnq], l[SockDrop], l[CrashPollFail], f.PollResidual)
	a.check(rPacket, -1, l[SockEnq] == l[AppStart]+l[CrashSockFail]+f.SockQResidual,
		"sockq-enqueued != app-dequeued + crash-failed + sockq residual: %d != %d + %d + %d",
		l[SockEnq], l[AppStart], l[CrashSockFail], f.SockQResidual)
	a.check(rPacket, -1, l[AppStart] == l[AppDone]+l[CrashAppFail]+f.AppResidual,
		"app-dequeued != app-done + crash-failed + app residual: %d != %d + %d + %d",
		l[AppStart], l[AppDone], l[CrashAppFail], f.AppResidual)

	// Response direction (tx mirrors rx).
	a.check(rPacket, -1, l[txOps] == l[AppDone],
		"responses transmitted != app completions: %d != %d", l[txOps], l[AppDone])
	a.check(rPacket, -1, l[txSegsSched] >= l[txSegs],
		"segments on the wire (%d) exceed segments scheduled (%d)", l[txSegs], l[txSegsSched])
	a.check(rPacket, -1, l[txSegs] == l[TxCleaned]+f.TxPendingResidual,
		"segments != cleaned + pending completions: %d != %d + %d", l[txSegs], l[TxCleaned], f.TxPendingResidual)
	a.check(rPacket, -1, l[TxDone] <= l[txOps],
		"more responses finished transmit (%d) than were transmitted (%d)", l[TxDone], l[txOps])
	a.check(rPacket, -1, l[RespSched]+l[WireDropResp] == l[TxDone],
		"return-traversal copies + wire-lost != tx-done: %d + %d != %d", l[RespSched], l[WireDropResp], l[TxDone])
	a.check(rPacket, -1, l[RespArrived] <= l[RespSched],
		"more responses arrived (%d) than were scheduled (%d)", l[RespArrived], l[RespSched])
	a.check(rPacket, -1, f.Completed <= l[RespArrived],
		"ledger completions (%d) exceed response arrivals (%d)", f.Completed, l[RespArrived])

	// Cross-checks against the models' own books.
	a.check(rPacket, -1, l[ClientSend] == f.Issued+f.Retransmits-f.Shed,
		"client copies != ledger issued + retransmits - shed: %d != %d + %d - %d",
		l[ClientSend], f.Issued, f.Retransmits, f.Shed)
	a.check(rPacket, -1, l[RingDrop] == f.NICDrops,
		"audited ring drops != NIC drop counter: %d != %d", l[RingDrop], f.NICDrops)
	a.check(rPacket, -1, l[SockDrop] == f.KernelSockDrops,
		"audited sockq drops != kernel drop counter: %d != %d", l[SockDrop], f.KernelSockDrops)
	a.check(rPacket, -1, l[WireDropReq]+l[WireDropResp] == f.FaultWireDrops,
		"audited wire losses != injector counter: %d + %d != %d", l[WireDropReq], l[WireDropResp], f.FaultWireDrops)
	a.check(rPacket, -1, l[AppDone] == f.KernelCompleted,
		"audited app completions != kernel counter: %d != %d", l[AppDone], f.KernelCompleted)

	// The client request ledger identity, promoted to an enforced check.
	a.check(rLedger, -1, f.Issued == f.Completed+f.TimedOut+f.Lost+f.Shed+f.InFlight,
		"issued != completed + timed-out + lost + shed + in-flight: %d != %d + %d + %d + %d + %d",
		f.Issued, f.Completed, f.TimedOut, f.Lost, f.Shed, f.InFlight)
	a.check(rLedger, -1, l[Shed] == f.Shed,
		"audited shed count != ledger shed: %d != %d", l[Shed], f.Shed)

	// Hard-fault cross-checks against the models' own books.
	a.check(rFailure, -1, l[RingCrashFail] == f.CrashRingFails,
		"audited ring crash-fails != NIC counter: %d != %d", l[RingCrashFail], f.CrashRingFails)
	a.check(rFailure, -1, l[RingOutageFail] == f.NICOutageFails,
		"audited NIC outage-fails != NIC counter: %d != %d", l[RingOutageFail], f.NICOutageFails)
	a.check(rFailure, -1, l[CrashPollFail]+l[CrashAppFail]+l[CrashSockFail] == f.KernelCrashFails,
		"audited kernel crash-fails != kernel counters: %d + %d + %d != %d",
		l[CrashPollFail], l[CrashAppFail], l[CrashSockFail], f.KernelCrashFails)
	a.check(rFailure, -1, a.coreOffline == f.CoreCrashes,
		"audited core-offline transitions != injector crashes: %d != %d", a.coreOffline, f.CoreCrashes)
	a.check(rFailure, -1, a.coreOnline == f.CoreRecoveries,
		"audited core-online transitions != injector recoveries: %d != %d", a.coreOnline, f.CoreRecoveries)
	var offNow uint64
	for i := range a.pc {
		if a.pc[i].cstate == stOff {
			offNow++
		}
	}
	a.check(rFailure, -1, offNow == f.OfflineCores,
		"mirror counts %d offline cores, processor reports %d", offNow, f.OfflineCores)

	// Per-core cycle accounting and C-state legality against the cores'
	// own piecewise integration.
	for i := range a.pc {
		pc := &a.pc[i]
		// Settle the mirror residencies and any busy tail to now.
		pc.resid[pc.cstate] += int64(now - pc.lastC)
		pc.lastC = now
		if pc.busy {
			pc.busyNs += int64(now - pc.busyStart)
			pc.busyStart = now
		}
		if i < len(f.CoreBusyNs) {
			a.check(rCycle, i, pc.busyNs == f.CoreBusyNs[i],
				"audited busy time %dns != core integration %dns", pc.busyNs, f.CoreBusyNs[i])
		}
		if i < len(f.CoreCC0Ns) {
			a.check(rCycle, i, pc.resid[stCC0] == f.CoreCC0Ns[i],
				"audited CC0 residency %dns != core integration %dns", pc.resid[stCC0], f.CoreCC0Ns[i])
		}
		elapsed := pc.resid[stCC0] + pc.resid[stCC1] + pc.resid[stCC6] + pc.resid[stOff]
		a.check(rCycle, i, elapsed == int64(now),
			"C-state + offline residencies sum to %dns, elapsed is %dns", elapsed, int64(now))
		a.check(rCycle, i, pc.busyNs <= pc.resid[stCC0],
			"busy time %dns exceeds CC0 residency %dns", pc.busyNs, pc.resid[stCC0])
		if i < len(f.CoreCC6) {
			a.check(rCState, i, pc.cc6 == f.CoreCC6[i],
				"audited CC6 entries %d != core counter %d", pc.cc6, f.CoreCC6[i])
		}
		if i < len(f.CoreTrans) {
			a.check(rPState, i, pc.transitions == f.CoreTrans[i],
				"audited P-state transitions %d != core counter %d", pc.transitions, f.CoreTrans[i])
		}
		if i < len(f.CoreEnergyJ) {
			a.check(rEnergy, i, f.CoreEnergyJ[i] >= pc.lastEnergyJ,
				"final core energy %.9gJ below last audited %.9gJ", f.CoreEnergyJ[i], pc.lastEnergyJ)
		}
	}

	// Package energy sanity: non-negative, monotone across the warmup
	// baseline, and bounded by the all-busy P0 power ceiling.
	a.check(rEnergy, -1, f.BaselineEnergyJ >= 0 && f.PackageEnergyJ >= f.BaselineEnergyJ,
		"package energy not monotone: baseline %.9gJ, final %.9gJ", f.BaselineEnergyJ, f.PackageEnergyJ)
	if a.boundW > 0 {
		bound := a.boundW * now.Seconds() * (1 + 1e-9)
		a.check(rEnergy, -1, f.PackageEnergyJ <= bound,
			"package energy %.9gJ exceeds the %.4gW x %v ceiling (%.9gJ)",
			f.PackageEnergyJ, a.boundW, now, bound)
	}

	// Engine coherence: the clock never ran backwards across any audited
	// instant (observeNow counted regressions as they happened; this is
	// the closing probe against the run-end clock), and the watchdog
	// story is consistent with the armed bound.
	a.check(rTime, -1, now >= a.lastNow,
		"run-end clock %v below the last audited instant %v", now, a.lastNow)
	maxEvents := a.eng.Watchdog()
	if maxEvents > 0 {
		a.check(rWatchdog, -1, a.eng.Dispatched() <= maxEvents,
			"engine fired %d events past the %d-event watchdog bound", a.eng.Dispatched(), maxEvents)
	}
	if err := a.eng.Err(); errors.Is(err, sim.ErrWatchdog) {
		a.check(rWatchdog, -1, maxEvents > 0,
			"watchdog abort reported with no watchdog bound armed: %v", err)
	}

	rep := &Report{Total: a.total, Violations: a.violations}
	for r := 0; r < numRules; r++ {
		rep.Rules = append(rep.Rules, RuleStat{
			Rule:       ruleNames[r],
			Checks:     a.checks[r],
			Violations: a.vcount[r],
		})
	}
	a.report = rep
	return rep
}
