// Package kernel models the per-core Linux network receive path the
// paper's mechanism lives in: hardirq → NAPI softirq poll loop
// (interrupt vs. polling mode) → ksoftirqd migration, plus a per-core
// application server thread sharing the core with ksoftirqd under a
// round-robin scheduler, and socket queues in between.
//
// The NAPI rules follow §2.1 of the paper:
//
//   - The NIC interrupt handler masks the queue IRQ and schedules the
//     softirq. Packets drained by the *first* poll pass count as
//     processed in interrupt mode.
//   - If a pass does not empty the ring, the softirq repeats; packets
//     drained by repeated passes count as processed in polling mode.
//   - The softirq hands the remaining work to ksoftirqd when it has
//     spent more than two scheduler ticks (8ms at 250Hz) or has failed
//     to empty the ring for more than ten iterations. ksoftirqd runs at
//     normal thread priority, sharing the core with the application.
//   - When the ring is finally emptied, the queue IRQ is re-enabled —
//     back to interrupt mode.
package kernel

import (
	"nmapsim/internal/audit"
	"nmapsim/internal/cpu"
	"nmapsim/internal/nic"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Mode tags how a batch of packets was processed (Fig 2's stacked bars).
type Mode int

const (
	// InterruptMode: the batch was drained by the first poll pass
	// directly following an interrupt.
	InterruptMode Mode = iota
	// PollingMode: the batch was drained by a repeated softirq pass or
	// by ksoftirqd.
	PollingMode
)

// String names the mode.
func (m Mode) String() string {
	if m == InterruptMode {
		return "interrupt"
	}
	return "polling"
}

// NAPIEventKind names one of the per-core NAPI events.
type NAPIEventKind uint8

const (
	// InterruptArrived: the hardirq handler ran on the core.
	InterruptArrived NAPIEventKind = iota
	// PacketsProcessed: a poll batch completed.
	PacketsProcessed
	// KsoftirqdWake: packet processing migrated to ksoftirqd.
	KsoftirqdWake
	// KsoftirqdSleep: ksoftirqd emptied the ring and slept, or its
	// core crashed under it.
	KsoftirqdSleep
)

// NAPIEvent is one per-core NAPI event. Mode and N describe the batch of
// a PacketsProcessed event and are zero for the others.
type NAPIEvent struct {
	Kind NAPIEventKind
	Core int
	Mode Mode
	N    int
}

// NAPIListener observes the per-core NAPI events NMAP, the baselines and
// the §4.2 profiler consume. OnNAPI is called synchronously from the
// simulation loop, in the order the listeners were added.
type NAPIListener interface {
	OnNAPI(e NAPIEvent)
}

// IdlePolicy chooses the C-state when a core runs out of work. The menu,
// disable and c6only policies in package governor implement it.
type IdlePolicy interface {
	Name() string
	// SelectState picks the C-state for a core entering idle.
	SelectState(coreID int) cpu.CState
	// IdleEnded feeds back the actual idle duration (menu's predictor).
	IdleEnded(coreID int, d sim.Duration)
}

// The Linux-default NAPI parameters of the paper's testbed, with cycle
// costs calibrated against it: ≈1.1µs Rx path and ≈0.31µs
// Tx-completion cleaning per packet at 3.2GHz.
const (
	// pollBudget is the NAPI per-pass packet budget (Linux: 64).
	pollBudget = 64
	// maxPollPasses is the "fails to empty more than N iterations"
	// ksoftirqd migration threshold (Linux: 10).
	maxPollPasses = 10
	// softirqTimeLimit is the "overuses more than two scheduler ticks"
	// migration threshold (8ms at 250Hz).
	softirqTimeLimit = 8 * sim.Millisecond
	// irqCycles is the hardirq handler cost.
	irqCycles = 1000
	// pollOverheadCycles is the fixed cost of one poll pass.
	pollOverheadCycles = 600
	// PerPktCycles is the softirq per-packet Rx protocol-processing
	// cost (ring → sk_buff → IP/TCP → socket queue).
	PerPktCycles = 3500
	// txCleanCycles is the softirq per-segment Tx-completion cleaning
	// cost (Fig 1 ⑥-⑧).
	txCleanCycles = 1000
	// txCleanBudget caps Tx completions reaped per poll pass.
	txCleanBudget = 256
	// tickPeriod is the scheduler tick (jiffy) period: 4ms at the 250Hz
	// configuration the paper cites. A tick landing while the softirq
	// is processing and an application thread is runnable sets the
	// reschedule flag — §2.1's third ksoftirqd migration condition
	// ("the softirq handler yields the current core to process
	// scheduler when reschedule flag is set").
	tickPeriod = 4 * sim.Millisecond
)

type execOwner int

const (
	ownerNone execOwner = iota
	ownerHardirq
	ownerSoftirq
	ownerKsoftirqd
	ownerApp
)

// Counters is a snapshot of a core's cumulative NAPI accounting.
type Counters struct {
	PktIntr        uint64
	PktPoll        uint64
	Interrupts     uint64
	KsoftirqdWakes uint64
	Completed      uint64
	MaxSockQ       int
	// SockDrops counts requests dropped on socket-queue overflow (the
	// socket-queue cap reached).
	SockDrops uint64
	// CrashFails counts requests this kernel failed into the ledger
	// because of a hard fault: in-flight poll batches and app work lost
	// to Crash, plus adoption overflow when a survivor's socket queue
	// cannot absorb a dead core's backlog.
	CrashFails uint64
}

// CoreKernel is the per-core kernel instance. Field order is
// cache-conscious: the dispatch state machine reads the engine/device
// pointers, the execution/NAPI flags, and the softirq scratch fields on
// every packet, so they are packed up front (bools adjacent to minimize
// padding); construction-time configuration, assembly hooks, and
// counters trail behind.
type CoreKernel struct {
	eng  *sim.Engine
	core *cpu.Core
	dev  *nic.NIC

	// Execution state.
	exec    *cpu.Exec
	owner   execOwner
	lastRan execOwner // round-robin between ksoftirqd and the app thread

	sleeping bool
	waking   bool
	offline  bool // hard-failed: no dispatch until Recover

	// IRQ/NAPI state.
	hardirqPending bool
	napiScheduled  bool
	inKsoftirqd    bool // NAPI ownership migrated to ksoftirqd
	firstPass      bool
	needResched    bool // set by the scheduler tick while softirq hogs the core

	idleStart     sim.Time
	softirqStart  sim.Time
	softirqPasses int

	// Saved batch when an app execution resumes after preemption (only
	// the app is preemptible: IRQs stay masked during NAPI processing).
	appRem float64
	appCur *workload.Request

	// Socket queue between the softirq Rx path and the app thread.
	sockQ sim.FIFO[*workload.Request]

	// In-flight poll-pass state, read by the pollDone completion (one
	// exec at a time per core, so single fields suffice).
	pollBatch []*nic.Packet
	pollTxn   int

	// Completion callbacks bound once at construction so StartExec is
	// never handed a fresh closure on the per-packet path.
	hardirqDone func()
	pollDone    func()
	appDone     func()
	wakeDone    func()

	// OnAppComplete fires when the app thread finishes a request; the
	// server assembly transmits the response from here.
	OnAppComplete func(r *workload.Request)
	// OnDrop fires for each request this kernel drops: on socket-queue
	// overflow (the socket-queue cap), or failed into the ledger on a hard
	// fault (see Counters.CrashFails). The server marks the in-flight
	// copy lost instead of leaking it, so the client's RTO observes it.
	OnDrop func(r *workload.Request)

	ID int
	// sockQCap bounds the socket queue (sk_buff backlog): requests
	// delivered to a full queue are dropped and surfaced via OnDrop,
	// mirroring sk_rcvbuf overflow. Zero means unlimited.
	sockQCap int
	// passLimit is the ksoftirqd migration pass threshold,
	// maxPollPasses; tests raise it to isolate the time limit.
	passLimit int
	idlePol   IdlePolicy
	listeners []NAPIListener
	// aud is the run's invariant auditor (nil = unaudited): it mirrors
	// the NAPI state machine and counts the socket-queue/app legs of
	// packet conservation.
	aud *audit.Auditor

	c Counters
}

// NewCoreKernel wires one core's kernel to its NIC queue. The NIC queue
// index equals the core ID (one RSS queue per core, as in the paper).
// sockQCap bounds the socket queue (0 = unlimited).
func NewCoreKernel(id int, eng *sim.Engine, core *cpu.Core, dev *nic.NIC, sockQCap int, idle IdlePolicy) *CoreKernel {
	k := &CoreKernel{
		ID:        id,
		eng:       eng,
		core:      core,
		dev:       dev,
		sockQCap:  sockQCap,
		passLimit: maxPollPasses,
		idlePol:   idle,
	}
	k.hardirqDone = k.onHardirqDone
	k.pollDone = k.onPollDone
	k.appDone = k.onAppDone
	k.wakeDone = k.onWakeDone
	dev.SetHandler(id, k.onInterrupt)
	return k
}

// AddListener attaches a NAPI event listener.
func (k *CoreKernel) AddListener(l NAPIListener) {
	k.listeners = append(k.listeners, l)
}

// emit hands e to every listener in the order they were added.
func (k *CoreKernel) emit(e NAPIEvent) {
	for _, l := range k.listeners {
		l.OnNAPI(e)
	}
}

// Counters returns the cumulative NAPI accounting for this core.
func (k *CoreKernel) Counters() Counters { return k.c }

// SetAuditor attaches the run's invariant auditor. Call before the run
// starts; a nil auditor (the default) audits nothing.
func (k *CoreKernel) SetAuditor(a *audit.Auditor) { k.aud = a }

// SockQLen returns the current socket-queue depth.
func (k *CoreKernel) SockQLen() int { return k.sockQ.Len() }

// AppInFlight returns how many requests the app thread currently holds
// (dequeued from the socket queue but not yet completed).
func (k *CoreKernel) AppInFlight() int {
	if k.appCur != nil {
		return 1
	}
	return 0
}

// PollInFlight returns how many polled packets are being charged for by
// an in-flight poll pass (drained from the ring, not yet delivered to
// the socket queue).
func (k *CoreKernel) PollInFlight() int { return len(k.pollBatch) }

// Start arms the kernel: the core begins idle under the idle policy and
// the scheduler tick starts (all cores tick on the same global jiffy
// grid, as in Linux).
func (k *CoreKernel) Start() {
	k.eng.Ticker(tickPeriod, k.schedTick)
	k.goIdle()
}

// schedTick is the 250Hz scheduler tick: if it lands while the softirq
// context owns the core and a normal-priority thread is runnable, the
// reschedule flag is set and the softirq migrates its remaining work to
// ksoftirqd at the end of the current pass.
func (k *CoreKernel) schedTick() {
	if k.offline {
		return
	}
	if k.napiScheduled && !k.inKsoftirqd && (k.appCur != nil || k.sockQ.Len() > 0) {
		k.needResched = true
	}
}

// onInterrupt is the NIC's hardirq delivery for this core's queue.
func (k *CoreKernel) onInterrupt() {
	if k.offline {
		return
	}
	k.hardirqPending = true
	if k.sleeping {
		k.startWake()
		return
	}
	if k.waking {
		return // will be handled when the wake completes
	}
	// Hardirq preempts the application thread; softirq/ksoftirqd passes
	// run with this queue's IRQ masked, so they are never interrupted.
	if k.exec != nil && k.owner == ownerApp {
		k.appRem = k.exec.Cancel()
		k.exec = nil
		k.owner = ownerNone
	}
	k.dispatch()
}

func (k *CoreKernel) startWake() {
	if !k.sleeping || k.waking {
		return
	}
	k.sleeping = false
	k.waking = true
	if k.idlePol != nil {
		k.idlePol.IdleEnded(k.ID, sim.Duration(k.eng.Now()-k.idleStart))
	}
	lat := k.core.Wake()
	k.eng.Schedule(lat, k.wakeDone)
}

func (k *CoreKernel) onWakeDone() {
	if k.offline {
		return // the core died while the wake was in flight
	}
	k.waking = false
	k.dispatch()
}

// dispatch is the core's scheduler: hardirq > softirq > round-robin
// between ksoftirqd and the application thread; otherwise idle.
func (k *CoreKernel) dispatch() {
	if k.offline {
		return
	}
	if k.exec != nil || k.waking {
		return
	}
	if k.sleeping {
		if k.hasWork() {
			k.startWake()
		}
		return
	}
	switch {
	case k.hardirqPending:
		k.runHardirq()
	case k.napiScheduled && !k.inKsoftirqd:
		k.runPollPass(ownerSoftirq)
	default:
		ks := k.inKsoftirqd
		app := k.appCur != nil || k.sockQ.Len() > 0
		switch {
		case ks && app:
			// Round-robin: run whoever did not run last.
			if k.lastRan == ownerKsoftirqd {
				k.runApp()
			} else {
				k.runPollPass(ownerKsoftirqd)
			}
		case ks:
			k.runPollPass(ownerKsoftirqd)
		case app:
			k.runApp()
		default:
			k.goIdle()
		}
	}
}

func (k *CoreKernel) hasWork() bool {
	return k.hardirqPending || k.napiScheduled || k.inKsoftirqd ||
		k.appCur != nil || k.sockQ.Len() > 0
}

func (k *CoreKernel) goIdle() {
	if k.hasWork() {
		k.dispatch()
		return
	}
	k.idleStart = k.eng.Now()
	st := cpu.CC0
	if k.idlePol != nil {
		st = k.idlePol.SelectState(k.ID)
	}
	k.sleeping = true
	if st == cpu.CC0 {
		// Poll-idle: stays awake; wake latency is zero.
		k.core.Idle()
		k.sleeping = true // treated as zero-latency sleep
	}
	if st != cpu.CC0 {
		k.core.Sleep(st)
	}
}

func (k *CoreKernel) runHardirq() {
	k.hardirqPending = false
	k.owner = ownerHardirq
	k.exec = k.core.StartExec(irqCycles, k.hardirqDone)
}

func (k *CoreKernel) onHardirqDone() {
	k.exec = nil
	k.owner = ownerNone
	k.c.Interrupts++
	// The handler schedules NAPI: first pass counts as interrupt
	// mode. If ksoftirqd already owns the NAPI context (IRQ was
	// re-enabled by a race we do not model), fold into it.
	if !k.inKsoftirqd {
		k.aud.NAPISchedule(k.ID)
		k.napiScheduled = true
		k.firstPass = true
		k.softirqStart = k.eng.Now()
		k.softirqPasses = 0
	} else {
		k.aud.NAPIFold(k.ID)
	}
	k.emit(NAPIEvent{Kind: InterruptArrived, Core: k.ID})
	k.dispatch()
}

// runPollPass executes one NAPI poll pass in either softirq or ksoftirqd
// context: drain up to the budget from the Rx ring, clean pending Tx
// completions, charge the cycles, deliver to the socket queue.
func (k *CoreKernel) runPollPass(owner execOwner) {
	k.aud.NAPIPoll(k.ID)
	batch := k.dev.Poll(k.ID, pollBudget)
	txn := k.dev.TxClean(k.ID, txCleanBudget)
	if len(batch) == 0 && txn == 0 {
		k.napiComplete(owner)
		k.dispatch()
		return
	}
	cost := pollOverheadCycles +
		float64(PerPktCycles*float64(len(batch))) +
		float64(txCleanCycles*float64(txn))
	k.owner = owner
	k.lastRan = owner
	k.pollBatch = batch
	k.pollTxn = txn
	k.exec = k.core.StartExec(cost, k.pollDone)
}

func (k *CoreKernel) onPollDone() {
	owner := k.owner
	batch, txn := k.pollBatch, k.pollTxn
	k.pollBatch = nil
	k.exec = nil
	k.owner = ownerNone
	// Deliver to the socket queue (Tx completions carry no payload) and
	// recycle the packet records — one of the pool's explicit recycle
	// points: the ring slots were vacated by Poll and the payload is now
	// owned by the socket queue.
	for _, p := range batch {
		if p.Payload != nil {
			if k.sockQCap > 0 && k.sockQ.Len() >= k.sockQCap {
				k.c.SockDrops++
				k.aud.Count(audit.SockDrop, 1)
				if k.OnDrop != nil {
					k.OnDrop(p.Payload)
				}
			} else {
				k.aud.Count(audit.SockEnq, 1)
				k.sockQ.Push(p.Payload)
			}
		}
		k.dev.PutPacket(p)
	}
	if k.sockQ.Len() > k.c.MaxSockQ {
		k.c.MaxSockQ = k.sockQ.Len()
	}
	mode := PollingMode
	if owner == ownerSoftirq && k.firstPass {
		mode = InterruptMode
	}
	k.firstPass = false
	n := len(batch) + txn
	if mode == InterruptMode {
		k.c.PktIntr += uint64(n)
	} else {
		k.c.PktPoll += uint64(n)
	}
	k.emit(NAPIEvent{Kind: PacketsProcessed, Core: k.ID, Mode: mode, N: n})
	if !k.dev.HasWork(k.ID) {
		k.needResched = false
		k.napiComplete(owner)
	} else if owner == ownerSoftirq {
		k.softirqPasses++
		if k.needResched ||
			k.softirqPasses >= k.passLimit ||
			sim.Duration(k.eng.Now()-k.softirqStart) >= softirqTimeLimit {
			k.needResched = false
			k.migrateToKsoftirqd()
		}
	}
	k.dispatch()
}

// napiComplete ends the polling session: the ring is empty, the queue
// IRQ is re-enabled, and ksoftirqd (if it owned the context) sleeps.
func (k *CoreKernel) napiComplete(owner execOwner) {
	k.aud.NAPIComplete(k.ID)
	k.napiScheduled = false
	if k.inKsoftirqd {
		k.inKsoftirqd = false
		k.emit(NAPIEvent{Kind: KsoftirqdSleep, Core: k.ID})
	}
	k.dev.EnableIRQ(k.ID)
}

// migrateToKsoftirqd hands the NAPI context from softirq to the
// ksoftirqd thread (normal priority, shares the core with the app).
func (k *CoreKernel) migrateToKsoftirqd() {
	k.aud.NAPIMigrate(k.ID)
	k.napiScheduled = false
	k.inKsoftirqd = true
	k.c.KsoftirqdWakes++
	k.emit(NAPIEvent{Kind: KsoftirqdWake, Core: k.ID})
}

func (k *CoreKernel) runApp() {
	if k.appCur == nil {
		if k.sockQ.Len() == 0 {
			k.goIdle()
			return
		}
		k.aud.Count(audit.AppStart, 1)
		k.appCur = k.sockQ.Pop()
		k.appRem = k.appCur.AppCycles
	}
	k.owner = ownerApp
	k.lastRan = ownerApp
	k.exec = k.core.StartExec(k.appRem, k.appDone)
}

func (k *CoreKernel) onAppDone() {
	k.exec = nil
	k.owner = ownerNone
	done := k.appCur
	k.appCur = nil
	k.appRem = 0
	k.c.Completed++
	k.aud.Count(audit.AppDone, 1)
	if k.OnAppComplete != nil {
		k.OnAppComplete(done)
	}
	k.dispatch()
}

// crashFail fails one request into the ledger during a hard fault.
func (k *CoreKernel) crashFail(r *workload.Request) {
	k.c.CrashFails++
	if k.OnDrop != nil {
		k.OnDrop(r)
	}
}

// Crash hard-fails this kernel: whatever execution was in flight is
// cancelled, work that cannot survive the core (the mid-poll batch and
// the request the app thread held) is failed into the ledger, the NAPI
// context is orphaned, and the socket-queue backlog is returned to the
// caller so a surviving core can Adopt it. After Crash the kernel
// refuses all dispatch until Recover. The caller must tear down the NIC
// queue and the CPU core around this call; Crash itself only settles
// the kernel's own state.
func (k *CoreKernel) Crash() []*workload.Request {
	if k.offline {
		return nil
	}
	if k.exec != nil {
		k.exec.Cancel()
		k.exec = nil
	}
	k.owner = ownerNone
	// The poll batch was drained from the ring and is owned by the
	// cancelled pass: its payloads die with the core.
	for _, p := range k.pollBatch {
		if p.Payload != nil {
			k.aud.Count(audit.CrashPollFail, 1)
			k.crashFail(p.Payload)
		}
		k.dev.PutPacket(p)
	}
	k.pollBatch = nil
	k.pollTxn = 0
	// The request the app thread held (running or preempted) dies too.
	if k.appCur != nil {
		k.aud.Count(audit.CrashAppFail, 1)
		k.crashFail(k.appCur)
		k.appCur = nil
		k.appRem = 0
	}
	// The socket queue survives in memory: it migrates to the adoptive
	// core, exactly like a real kernel re-homing a backlog on CPU
	// hotplug. Hand it off rather than failing it.
	stranded := k.sockQ.PopN(nil, k.sockQ.Len())
	// Orphan the NAPI context. If ksoftirqd owned it, the listeners see
	// a sleep so mode-transition policies keep their wake/sleep events
	// balanced.
	if k.napiScheduled || k.inKsoftirqd {
		k.aud.NAPIOrphan(k.ID)
	}
	if k.inKsoftirqd {
		k.emit(NAPIEvent{Kind: KsoftirqdSleep, Core: k.ID})
	}
	k.napiScheduled = false
	k.inKsoftirqd = false
	k.firstPass = false
	k.hardirqPending = false
	k.needResched = false
	k.sleeping = false
	k.waking = false
	k.offline = true
	return stranded
}

// Adopt takes over a crashed core's socket-queue backlog. Requests that
// fit under this core's socket-queue cap join the queue (no re-enqueue audit
// event: globally the request is still the same socket-queue occupant);
// overflow is failed into the ledger — a survivor under pressure cannot
// absorb an unbounded backlog.
func (k *CoreKernel) Adopt(rs []*workload.Request) {
	for _, r := range rs {
		if k.sockQCap > 0 && k.sockQ.Len() >= k.sockQCap {
			k.aud.Count(audit.CrashSockFail, 1)
			k.crashFail(r)
			continue
		}
		k.sockQ.Push(r)
	}
	if k.sockQ.Len() > k.c.MaxSockQ {
		k.c.MaxSockQ = k.sockQ.Len()
	}
	k.dispatch()
}

// AbandonBacklog fails a crashed core's socket-queue backlog into the
// ledger — the node-level counterpart of Adopt, used when the whole
// node died and no surviving core exists to re-home the queue. Each
// request goes through the same crash-fail accounting as an Adopt
// overflow, so the auditor's kernel-crash identities balance whether a
// backlog was adopted, overflowed, or abandoned wholesale.
func (k *CoreKernel) AbandonBacklog(rs []*workload.Request) {
	for _, r := range rs {
		k.aud.Count(audit.CrashSockFail, 1)
		k.crashFail(r)
	}
}

// Recover brings a crashed kernel back: state was settled by Crash, so
// recovery is simply re-entering the idle loop (the scheduler tick never
// stopped; it was gated by the offline flag).
func (k *CoreKernel) Recover() {
	if !k.offline {
		return
	}
	k.offline = false
	k.goIdle()
}
