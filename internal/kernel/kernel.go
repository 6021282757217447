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

// NAPIListener observes the per-core NAPI events NMAP (and the
// experiment tracers) consume. All methods are called synchronously from
// the simulation loop.
type NAPIListener interface {
	// InterruptArrived fires when the hardirq handler runs on the core.
	InterruptArrived(coreID int)
	// PacketsProcessed fires after each completed poll batch.
	PacketsProcessed(coreID int, mode Mode, n int)
	// KsoftirqdWake fires when packet processing migrates to ksoftirqd.
	KsoftirqdWake(coreID int)
	// KsoftirqdSleep fires when ksoftirqd empties the ring and sleeps.
	KsoftirqdSleep(coreID int)
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

// Config holds the kernel model's tunables; zero values are replaced by
// DefaultConfig's.
type Config struct {
	// PollBudget is the NAPI per-pass packet budget (Linux: 64).
	PollBudget int
	// MaxPollPasses is the "fails to empty more than N iterations"
	// ksoftirqd migration threshold (Linux: 10).
	MaxPollPasses int
	// SoftirqTimeLimit is the "overuses more than two scheduler ticks"
	// migration threshold (8ms at 250Hz).
	SoftirqTimeLimit sim.Duration
	// IRQCycles is the hardirq handler cost.
	IRQCycles float64
	// PollOverheadCycles is the fixed cost of one poll pass.
	PollOverheadCycles float64
	// PerPktCycles is the softirq per-packet Rx protocol-processing
	// cost (ring → sk_buff → IP/TCP → socket queue).
	PerPktCycles float64
	// TxCleanCycles is the softirq per-segment Tx-completion cleaning
	// cost (Fig 1 ⑥-⑧).
	TxCleanCycles float64
	// TxCleanBudget caps Tx completions reaped per poll pass.
	TxCleanBudget int
	// TickPeriod is the scheduler tick (jiffy) period: 4ms at the
	// 250Hz configuration the paper cites. A tick landing while the
	// softirq is processing and an application thread is runnable sets
	// the reschedule flag — §2.1's third ksoftirqd migration condition
	// ("the softirq handler yields the current core to process
	// scheduler when reschedule flag is set").
	TickPeriod sim.Duration
	// SockQCap bounds the per-core socket queue (sk_buff backlog):
	// requests delivered to a full queue are dropped and surfaced via
	// OnDrop, mirroring sk_rcvbuf overflow. Zero means unlimited —
	// the seed model's behaviour, so existing configs are unchanged.
	SockQCap int
}

// DefaultConfig returns the Linux-default kernel parameters with cycle
// costs calibrated against the paper's testbed: ≈1.1µs Rx path and
// ≈0.31µs Tx-completion cleaning per packet at 3.2GHz.
func DefaultConfig() Config {
	return Config{
		PollBudget:         64,
		MaxPollPasses:      10,
		SoftirqTimeLimit:   8 * sim.Millisecond,
		IRQCycles:          1000,
		PollOverheadCycles: 600,
		PerPktCycles:       3500,
		TxCleanCycles:      1000,
		TxCleanBudget:      256,
		TickPeriod:         4 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.PollBudget == 0 {
		c.PollBudget = d.PollBudget
	}
	if c.MaxPollPasses == 0 {
		c.MaxPollPasses = d.MaxPollPasses
	}
	if c.SoftirqTimeLimit == 0 {
		c.SoftirqTimeLimit = d.SoftirqTimeLimit
	}
	if c.IRQCycles == 0 {
		c.IRQCycles = d.IRQCycles
	}
	if c.PollOverheadCycles == 0 {
		c.PollOverheadCycles = d.PollOverheadCycles
	}
	if c.PerPktCycles == 0 {
		c.PerPktCycles = d.PerPktCycles
	}
	if c.TxCleanCycles == 0 {
		c.TxCleanCycles = d.TxCleanCycles
	}
	if c.TxCleanBudget == 0 {
		c.TxCleanBudget = d.TxCleanBudget
	}
	if c.TickPeriod == 0 {
		c.TickPeriod = d.TickPeriod
	}
	return c
}

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
	// SockDrops counts requests dropped on socket-queue overflow
	// (Config.SockQCap reached).
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
	// overflow (Config.SockQCap), or failed into the ledger on a hard
	// fault (see Counters.CrashFails). The server marks the in-flight
	// copy lost instead of leaking it, so the client's RTO observes it.
	OnDrop func(r *workload.Request)

	ID        int
	cfg       Config
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
func NewCoreKernel(id int, eng *sim.Engine, core *cpu.Core, dev *nic.NIC, cfg Config, idle IdlePolicy) *CoreKernel {
	k := &CoreKernel{
		ID:      id,
		eng:     eng,
		core:    core,
		dev:     dev,
		cfg:     cfg.withDefaults(),
		idlePol: idle,
	}
	k.hardirqDone = k.onHardirqDone
	k.pollDone = k.onPollDone
	k.appDone = k.onAppDone
	k.wakeDone = k.onWakeDone
	dev.SetHandler(id, k.onInterrupt)
	return k
}

// AddListener attaches a NAPI event listener (e.g. the NMAP monitor).
func (k *CoreKernel) AddListener(l NAPIListener) {
	k.listeners = append(k.listeners, l)
}

// Counters returns the cumulative NAPI accounting for this core.
func (k *CoreKernel) Counters() Counters { return k.c }

// Core returns the underlying CPU core.
func (k *CoreKernel) Core() *cpu.Core { return k.core }

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

// KsoftirqdActive reports whether NAPI processing is currently owned by
// ksoftirqd (i.e. ksoftirqd is awake).
func (k *CoreKernel) KsoftirqdActive() bool { return k.inKsoftirqd }

// Start arms the kernel: the core begins idle under the idle policy and
// the scheduler tick starts (all cores tick on the same global jiffy
// grid, as in Linux).
func (k *CoreKernel) Start() {
	k.eng.Ticker(k.cfg.TickPeriod, k.schedTick)
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
	k.exec = k.core.StartExec(k.cfg.IRQCycles, k.hardirqDone)
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
	for _, l := range k.listeners {
		l.InterruptArrived(k.ID)
	}
	k.dispatch()
}

// runPollPass executes one NAPI poll pass in either softirq or ksoftirqd
// context: drain up to the budget from the Rx ring, clean pending Tx
// completions, charge the cycles, deliver to the socket queue.
func (k *CoreKernel) runPollPass(owner execOwner) {
	k.aud.NAPIPoll(k.ID)
	batch := k.dev.Poll(k.ID, k.cfg.PollBudget)
	txn := k.dev.TxClean(k.ID, k.cfg.TxCleanBudget)
	if len(batch) == 0 && txn == 0 {
		k.napiComplete(owner)
		k.dispatch()
		return
	}
	cost := k.cfg.PollOverheadCycles +
		k.cfg.PerPktCycles*float64(len(batch)) +
		k.cfg.TxCleanCycles*float64(txn)
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
			if k.cfg.SockQCap > 0 && k.sockQ.Len() >= k.cfg.SockQCap {
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
	for _, l := range k.listeners {
		l.PacketsProcessed(k.ID, mode, n)
	}
	if !k.dev.HasWork(k.ID) {
		k.needResched = false
		k.napiComplete(owner)
	} else if owner == ownerSoftirq {
		k.softirqPasses++
		if k.needResched ||
			k.softirqPasses >= k.cfg.MaxPollPasses ||
			sim.Duration(k.eng.Now()-k.softirqStart) >= k.cfg.SoftirqTimeLimit {
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
		for _, l := range k.listeners {
			l.KsoftirqdSleep(k.ID)
		}
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
	for _, l := range k.listeners {
		l.KsoftirqdWake(k.ID)
	}
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

// Offline reports whether this kernel is hard-failed.
func (k *CoreKernel) Offline() bool { return k.offline }

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
		for _, l := range k.listeners {
			l.KsoftirqdSleep(k.ID)
		}
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
// fit under this core's SockQCap join the queue (no re-enqueue audit
// event: globally the request is still the same socket-queue occupant);
// overflow is failed into the ledger — a survivor under pressure cannot
// absorb an unbounded backlog.
func (k *CoreKernel) Adopt(rs []*workload.Request) {
	for _, r := range rs {
		if k.cfg.SockQCap > 0 && k.sockQ.Len() >= k.cfg.SockQCap {
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
