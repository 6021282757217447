// Package nic models a multi-queue 10GbE network interface of the Intel
// 82599 class used in the paper's evaluation: per-core Rx rings fed by
// RSS flow hashing, interrupt generation gated by per-queue IRQ masking
// (NAPI) and the interrupt-throttle rate (ITR, 10µs minimum interrupt
// period per §5.1), DMA latency and a simple Tx path.
package nic

import (
	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Packet is one network packet moving through the simulated datapath.
// Records are recycled through the NIC's free list (GetPacket /
// PutPacket), so the steady-state Rx/Tx path does not allocate.
type Packet struct {
	// ID is unique per packet within a run.
	ID uint64
	// Flow identifies the connection; RSS hashes it to an Rx queue.
	Flow uint64
	// Sent is when the client handed the packet to the network.
	Sent sim.Time
	// Arrived is when DMA placed the packet into the Rx ring.
	Arrived sim.Time
	// Payload carries the workload-level request (nil for packets that
	// are pure kernel work, e.g. Tx completions). Typed plumbing: the
	// NIC does not inspect it, but carrying the concrete pointer keeps
	// the hot path free of interface boxing.
	Payload *workload.Request
}

// Config parameterises the NIC.
type Config struct {
	// Queues is the number of Rx queues (one per core with RSS).
	Queues int
	// RingSize is the per-queue Rx descriptor ring capacity.
	RingSize int
	// ITR is the minimum spacing between interrupts on one queue
	// (10µs on the 82599 per §5.1).
	ITR sim.Duration
	// HashRSS selects seeded-hash flow steering, which deals flows to
	// queues unevenly (real Toeplitz-hash lumpiness). The default
	// (false) spreads flows round-robin — the paper's testbed: "RSS
	// evenly distributes packets in our experimental setup, thus each
	// core handles almost the same amount of network loads".
	HashRSS bool
}

// The datapath latencies of the paper's testbed 82599.
const (
	// dmaLatency is the wire-to-ring latency (PCIe DMA + descriptor
	// write-back).
	dmaLatency = 2 * sim.Microsecond
	// irqLatency is the time from interrupt assertion to the handler
	// starting on the core (APIC delivery).
	irqLatency = 1 * sim.Microsecond
	// txLatency is the transmit-side DMA cost charged between the
	// kernel handing a response off and the first segment reaching the
	// wire.
	txLatency = 1 * sim.Microsecond
	// txWire is the per-segment wire serialisation time (≈1.2µs per
	// 1500B MTU segment at 10GbE). Each segment that leaves the wire
	// posts a Tx-completion the softirq must clean (Fig 1 ⑤-⑧).
	txWire = 1200 * sim.Nanosecond
)

// DefaultConfig mirrors the paper's testbed NIC.
func DefaultConfig(queues int) Config {
	return Config{
		Queues:   queues,
		RingSize: 512,
		ITR:      10 * sim.Microsecond,
	}
}

// queue field order is cache-conscious: the per-packet DMA/Poll path
// (ring, batch, nextIRQ, txPending, the three gate flags and the lazy-Tx
// list's length) leads; the timer plumbing and failure-mode counters
// touched per-interrupt or per-fault follow, and the lazy-Tx bookkeeping
// only a multi-segment transmit touches trails behind.
type queue struct {
	ring      sim.FIFO[*Packet]
	batch     []*Packet // reusable Poll return buffer
	nextIRQ   sim.Time  // earliest instant ITR allows the next interrupt
	txPending int       // posted Tx completions awaiting softirq cleaning

	irqEnabled bool
	// offline marks a queue whose core hard-failed: the RSS re-steer
	// table sends its flows to the next online queue and DMA never
	// lands here. crashFails counts the stranded ring packets failed
	// into the ledger at offline time.
	offline bool
	// stalled marks a stuck ring: DMA keeps landing packets (so the
	// ring fills and overflows honestly) but the queue raises no
	// interrupts and returns nothing to Poll until the stall lifts.
	stalled bool
	// tx holds the queue's in-flight lazy transmits (see Transmit), in
	// no particular order.
	tx []*txOp

	irqTimer   sim.Event
	irqRetry   func() // bound once: re-runs maybeInterrupt at the ITR slot
	drops      uint64
	interrupts uint64
	crashFails uint64
	// outageFails counts packets that arrived while every queue was
	// offline (total NIC outage): no re-steer target exists, so the
	// packet fails into the ledger with its own explicit reason rather
	// than masquerading as ring overflow or a dead-ring crash fail.
	outageFails uint64

	// creditedT/creditedSeq is the dispatch position of the last credit
	// pass over tx. wake is the real event plan scheduled for a lazy
	// segment, at the segment's reserved seq wakeSeq.
	creditedT   sim.Time
	creditedSeq uint64
	wake        sim.Event
	wakeSeq     uint64
}

// txOp is the pooled in-flight state of one Transmit call, and the
// argument its segment events carry instead of a closure. Segment i
// (1-based) of n leaves the wire at at0 + i·txWire with sequence number
// seq0+i-1: exactly the (at, seq) the i-th of n ScheduleArg calls made
// at Transmit time would have had (at0 and seq0 are set on lazy
// transmits only). sent counts the segments posted.
type txOp struct {
	q    int
	p    *Packet
	done func(*Packet)
	at0  sim.Time
	seq0 uint64
	n    int
	sent int
	lazy bool // on its queue's tx list; only the last segment is scheduled up front
}

// seg returns segment i's dispatch position.
func (t *txOp) seg(i int) (sim.Time, uint64) {
	return t.at0 + sim.Time(i)*sim.Time(txWire), t.seq0 + uint64(i-1)
}

// firstAt returns the index of t's first segment at or after instant
// at, or n+1 when there is none.
func (t *txOp) firstAt(at sim.Time) int {
	d := sim.Duration(at - t.at0)
	if d <= 0 {
		return 1
	}
	return int(min((d+txWire-1)/txWire, sim.Duration(t.n+1)))
}

// NIC is the device model. The kernel attaches one interrupt handler per
// queue and drives the rings through Poll / EnableIRQ / DisableIRQ,
// exactly the contract the NAPI state machine expects.
type NIC struct {
	cfg Config
	eng *sim.Engine
	qs  []*queue
	// handler[q] is invoked on the (simulated) core when queue q raises
	// an interrupt.
	handler []func()
	rssSeed uint64
	// offlineCount gates the re-steer path in QueueFor: when zero (the
	// healthy steady state) flow steering is exactly the pre-failover
	// computation, byte for byte.
	offlineCount int

	// Free lists for packet records and Transmit state, plus the two
	// arg-style callbacks bound once at construction so the datapath
	// never allocates a closure per packet.
	pktFree []*Packet
	txFree  []*txOp
	dmaFn   func(any)
	txSegFn func(any)
	// elided counts the lazy segments credited without a dispatch of
	// their own: the NIC's share of Engine.Fired.
	elided uint64
	// poolOff disables recycling (the determinism debug knob): Get still
	// serves from whatever is pooled, but Put becomes a no-op.
	poolOff bool

	// inj draws device-level fault decisions (DMA jitter, lost/late
	// interrupts). nil when fault injection is off; every use is
	// nil-receiver-safe, so the zero-fault path draws nothing.
	inj *faults.Injector
	// aud is the run's invariant auditor (nil = unaudited); the device
	// reports every packet-conservation event on the Rx and Tx legs.
	aud *audit.Auditor
	// OnRxDrop is invoked for each packet the NIC drops on ring
	// overflow, before the record is recycled, so the server can mark
	// the payload's in-flight copy lost instead of leaking it. The
	// packet must not be retained.
	OnRxDrop func(*Packet)
}

// New builds a NIC.
func New(cfg Config, eng *sim.Engine, rssSeed uint64) *NIC {
	n := &NIC{cfg: cfg, eng: eng, rssSeed: rssSeed}
	n.qs = make([]*queue, cfg.Queues)
	n.handler = make([]func(), cfg.Queues)
	for i := range n.qs {
		q := i
		n.qs[i] = &queue{irqEnabled: true}
		n.qs[i].irqRetry = func() {
			n.maybeInterrupt(q)
			n.plan(q)
		}
	}
	n.dmaFn = n.dmaLand
	n.txSegFn = n.txSegment
	eng.AddElided(n.elidedEvents)
	return n
}

// DisablePooling turns off packet/Transmit-record recycling. It exists
// so tests can prove pooling changes nothing but allocation behaviour:
// a seeded run with pooling off must be byte-identical to one with
// pooling on.
func (n *NIC) DisablePooling() { n.poolOff = true }

// GetPacket takes a zeroed packet record off the free list (or mints
// one). The caller owns it until it hands it back via PutPacket.
func (n *NIC) GetPacket() *Packet {
	if ln := len(n.pktFree); ln > 0 {
		p := n.pktFree[ln-1]
		n.pktFree[ln-1] = nil
		n.pktFree = n.pktFree[:ln-1]
		return p
	}
	return &Packet{}
}

// PutPacket recycles a packet record. The explicit recycle points are:
// the kernel's poll pass (after payload extraction), the NIC's own
// ring-overflow drop, and the server's Tx-completion hook.
func (n *NIC) PutPacket(p *Packet) {
	if n.poolOff {
		return
	}
	*p = Packet{}
	n.pktFree = append(n.pktFree, p)
}

// PacketPoolSize returns the number of idle pooled packet records —
// bounded by the peak number of packets simultaneously in flight.
func (n *NIC) PacketPoolSize() int { return len(n.pktFree) }

func (n *NIC) getTxOp() *txOp {
	if ln := len(n.txFree); ln > 0 {
		t := n.txFree[ln-1]
		n.txFree[ln-1] = nil
		n.txFree = n.txFree[:ln-1]
		return t
	}
	return &txOp{}
}

func (n *NIC) putTxOp(t *txOp) {
	*t = txOp{}
	if n.poolOff {
		return
	}
	n.txFree = append(n.txFree, t)
}

// SetHandler attaches the interrupt handler for queue q.
func (n *NIC) SetHandler(q int, fn func()) {
	n.handler[q] = fn
	n.plan(q)
}

// QueueFor implements RSS flow steering. By default flows spread evenly
// across queues (the paper's testbed behaviour); with Config.HashRSS a
// seeded Fibonacci mix deals them lumpily, as a real Toeplitz hash can.
// When a queue's core has hard-failed, its flows re-steer to the next
// online queue — the indirection-table rewrite a driver performs on IRQ
// migration. Flows whose home queue is online keep their mapping, so
// steering stays pure for the survivors.
func (n *NIC) QueueFor(flow uint64) int {
	var q int
	if !n.cfg.HashRSS {
		q = int(flow % uint64(n.cfg.Queues))
	} else {
		h := (flow ^ n.rssSeed) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		q = int(h % uint64(n.cfg.Queues))
	}
	if n.offlineCount != 0 && n.qs[q].offline {
		q = n.NextOnlineQueue(q)
	}
	return q
}

// NextOnlineQueue returns the first online queue at or after q in ring
// order — the re-steer target for a dead queue's flows. If every queue
// is offline (a total NIC outage: the node itself crashed) it returns
// q unchanged, and dmaLand fails the landing packet into the ledger
// with an explicit outage reason instead of accepting it into a dead
// ring.
func (n *NIC) NextOnlineQueue(q int) int {
	for i := 0; i < n.cfg.Queues; i++ {
		c := (q + i) % n.cfg.Queues
		if !n.qs[c].offline {
			return c
		}
	}
	return q
}

// SetInjector attaches the fault injector. Call before the run starts;
// a nil injector (the default) injects nothing.
func (n *NIC) SetInjector(inj *faults.Injector) { n.inj = inj }

// SetAuditor attaches the run's invariant auditor. Call before the run
// starts; a nil auditor (the default) audits nothing.
func (n *NIC) SetAuditor(a *audit.Auditor) { n.aud = a }

// Deliver injects a packet from the wire: after the DMA latency (plus
// any injected jitter) it lands in the RSS-selected ring (or is dropped
// if the ring is full) and the queue's interrupt logic runs.
func (n *NIC) Deliver(p *Packet) {
	n.aud.Count(audit.NICDeliver, 1)
	n.eng.ScheduleArg(dmaLatency+n.inj.DMAJitter(), n.dmaFn, p)
}

// dmaLand is Deliver's second half, scheduled through the bound dmaFn
// so no per-packet closure exists. The RSS queue is recomputed here;
// QueueFor is pure, so the result is identical to hashing at Deliver
// time.
func (n *NIC) dmaLand(a any) {
	p := a.(*Packet)
	q := n.QueueFor(p.Flow)
	qu := n.qs[q]
	if qu.offline {
		// QueueFor found no re-steer target, which can only mean every
		// queue is offline — a total NIC outage. The packet cannot land
		// anywhere; fail it into the ledger explicitly so the client's
		// recovery machinery (RTO, or a cluster router's resteer) sees
		// honest loss, never a silent disappearance.
		qu.outageFails++
		n.aud.Count(audit.RingOutageFail, 1)
		if n.OnRxDrop != nil {
			n.OnRxDrop(p)
		}
		n.PutPacket(p)
		return
	}
	if qu.ring.Len() >= n.cfg.RingSize {
		qu.drops++
		n.aud.Count(audit.RingDrop, 1)
		if n.OnRxDrop != nil {
			n.OnRxDrop(p)
		}
		n.PutPacket(p)
		return
	}
	p.Arrived = n.eng.Now()
	n.aud.Count(audit.RingAccept, 1)
	qu.ring.Push(p)
	n.maybeInterrupt(q)
	n.plan(q)
}

// maybeInterrupt raises an interrupt on queue q if the queue has work
// (Rx packets or Tx completions), interrupts are enabled, and the ITR
// allows it; otherwise it arms a timer for the next ITR slot. Callers
// re-plan the queue's lazy Tx segments afterwards (plan).
func (n *NIC) maybeInterrupt(q int) {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return
	}
	if !qu.irqEnabled || n.handler[q] == nil || (qu.ring.Len() == 0 && n.txPending(qu) == 0) {
		return
	}
	now := n.eng.Now()
	if now >= qu.nextIRQ {
		// The ITR window is consumed whether or not the MSI write makes
		// it to the core. A lost interrupt deliberately leaves the queue
		// unmasked: the device believes it fired, so recovery is the
		// next packet arrival (typically a client retransmission)
		// re-running this logic after the ITR slot.
		qu.nextIRQ = now + sim.Time(n.cfg.ITR)
		if n.inj.DropIRQ() {
			return
		}
		qu.irqEnabled = false // NAPI: the handler masks further IRQs
		qu.interrupts++
		qu.irqTimer.Cancel()
		h := n.handler[q]
		n.eng.Schedule(irqLatency+n.inj.IRQJitter(), h)
		return
	}
	if !qu.irqTimer.Pending() {
		qu.irqTimer = n.eng.At(qu.nextIRQ, qu.irqRetry)
	}
}

// Poll dequeues up to max packets from queue q (the NAPI poll routine).
// The returned slice is a per-queue scratch buffer, valid until the next
// Poll on the same queue — callers must finish with it (and recycle the
// records via PutPacket) before polling again. The kernel always passes
// its 64-packet budget; max stays a parameter because
// FuzzTxElisionEquivalence drains the ring in budgets of 0–4 to reach
// partial polls.
func (n *NIC) Poll(q, max int) []*Packet {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return qu.batch[:0]
	}
	max = min(max, qu.ring.Len())
	n.aud.Count(audit.Polled, max)
	qu.batch = qu.ring.PopN(qu.batch[:0], max)
	return qu.batch
}

// QueueLen returns the occupancy of ring q.
func (n *NIC) QueueLen(q int) int { return n.qs[q].ring.Len() }

// EnableIRQ unmasks interrupts on queue q (NAPI complete). If packets
// arrived while masked, the interrupt logic re-runs immediately.
func (n *NIC) EnableIRQ(q int) {
	if n.qs[q].offline {
		return
	}
	n.qs[q].irqEnabled = true
	n.maybeInterrupt(q)
	n.plan(q)
}

// DisableIRQ masks interrupts on queue q.
func (n *NIC) DisableIRQ(q int) {
	n.qs[q].irqEnabled = false
	n.qs[q].irqTimer.Cancel()
	n.plan(q)
}

// Transmit sends a response of the given number of MTU segments back to
// the wire through queue q. Each segment leaving the wire posts one
// Tx-completion that the softirq must clean (TxClean); done fires when
// the last segment has left the NIC (the network substrate adds
// propagation delay from there).
//
// A segment's only visible work is to post its completion and run
// maybeInterrupt, and on most segments maybeInterrupt can do nothing:
// the queue is masked, or an ITR timer already covers it. So a
// multi-segment transmit is lazy: it reserves its segments' sequence
// numbers and schedules only the last segment, which runs done. Every
// completion is posted by credit once the engine's dispatch position
// has passed its segment, and plan turns the one segment at which
// maybeInterrupt could act into a real event. The firing order, and with
// it every output byte, is that of one event per segment, and an elided
// segment still counts in Engine.Fired once it has left the wire. A
// single-segment transmit, and with the engine watchdog armed every
// transmit, schedules one event per segment up front instead, so
// Dispatched and Pending count exactly one event per segment.
func (n *NIC) Transmit(q int, p *Packet, segments int, done func(*Packet)) {
	if segments < 1 {
		segments = 1
	}
	n.aud.TxStart(segments)
	t := n.getTxOp()
	t.q = q
	t.p = p
	t.done = done
	t.n = segments
	if segments == 1 || n.eng.Watchdog() != 0 {
		for i := 1; i <= segments; i++ {
			n.eng.ScheduleArg(txLatency+sim.Duration(i)*txWire, n.txSegFn, t)
		}
		return
	}
	t.lazy = true
	t.at0 = n.eng.Now() + sim.Time(txLatency)
	t.seq0 = n.eng.Reserve(segments)
	qu := n.qs[q]
	qu.tx = append(qu.tx, t)
	at, seq := t.seg(segments)
	n.eng.AtSeqArg(at, seq, n.txSegFn, t)
	n.planLazy(q)
}

// txSegment is the dispatch of one segment that is a real event: any
// segment of a transmit scheduled up front, a lazy transmit's last, or
// the lazy segment plan woke. A lazy transmit's earlier segments post
// their completions first.
//
// default.pgo marks the maybeInterrupt call hot at its line offset in
// this body (four lines in), which is what lets the PGO build inline it
// here; keep it there until the profile is refreshed.
func (n *NIC) txSegment(a any) {
	t := a.(*txOp)
	qu := n.post(t)
	t.sent++
	n.maybeInterrupt(t.q)
	n.aud.TxSegments(1)
	n.plan(t.q)
	if t.sent < t.n {
		return
	}
	if t.lazy {
		n.dropLazy(qu, t)
	}
	done, p := t.done, t.p
	n.putTxOp(t)
	if done != nil {
		done(p)
	}
}

// post posts the completion of t's segment now being dispatched, after
// those of the lazy segments before it, and returns t's queue.
func (n *NIC) post(t *txOp) *queue {
	qu := n.qs[t.q]
	if t.lazy {
		n.creditLazy(qu)
	}
	qu.txPending++
	return qu
}

// dropLazy takes the finished lazy transmit t off qu's list.
func (n *NIC) dropLazy(qu *queue, t *txOp) {
	for i, x := range qu.tx {
		if x == t {
			last := len(qu.tx) - 1
			qu.tx[i] = qu.tx[last]
			qu.tx[last] = nil
			qu.tx = qu.tx[:last]
			return
		}
	}
}

// elidedEvents credits every queue and returns the NIC's count of
// elided segment events (see Engine.AddElided).
func (n *NIC) elidedEvents() uint64 {
	for _, qu := range n.qs {
		n.credit(qu)
	}
	return n.elided
}

// credit posts the completion of every lazy segment on qu that the
// engine's dispatch position has passed. Their maybeInterrupt was a
// no-op (plan makes every segment where it was not a real event), so a
// completion and its audit tally are all they left behind.
func (n *NIC) credit(qu *queue) {
	if len(qu.tx) != 0 {
		n.creditLazy(qu)
	}
}

func (n *NIC) creditLazy(qu *queue) {
	pt, ps := n.eng.Position()
	if pt == qu.creditedT && ps == qu.creditedSeq {
		return // nothing has been dispatched since the last credit
	}
	qu.creditedT, qu.creditedSeq = pt, ps
	for _, t := range qu.tx {
		k := t.sent
		for ; k < t.n; k++ {
			if at, seq := t.seg(k + 1); at > pt || (at == pt && seq >= ps) {
				break
			}
		}
		if k > t.sent {
			qu.txPending += k - t.sent
			n.aud.TxSegments(k - t.sent)
			n.elided += uint64(k - t.sent)
			t.sent = k
		}
	}
}

// plan keeps the lazy segments of queue q exact. A segment's
// maybeInterrupt acts (raises an interrupt, draws a lost-IRQ decision or
// arms the ITR timer) iff the queue is online, unstalled, unmasked and
// has a handler, and either no ITR timer is pending or the segment is at
// or past nextIRQ. Under the queue's current state plan finds the
// earliest undispatched lazy segment meeting that test, short of a
// transmit's last (always real), and makes wake a real event there. The
// segments before it are no-ops unless the state changes first, and it
// changes only inside the NIC's own methods, each of which calls plan.
func (n *NIC) plan(q int) {
	if len(n.qs[q].tx) != 0 {
		n.planLazy(q)
	}
}

func (n *NIC) planLazy(q int) {
	qu := n.qs[q]
	n.credit(qu)
	var best *txOp
	var bestAt sim.Time
	var bestSeq uint64
	if !qu.offline && !qu.stalled && qu.irqEnabled && n.handler[q] != nil {
		timer := qu.irqTimer.Pending()
		for _, t := range qu.tx {
			i := t.sent + 1
			if timer {
				i = max(i, t.firstAt(qu.nextIRQ))
			}
			if i >= t.n {
				continue
			}
			at, seq := t.seg(i)
			if best == nil || at < bestAt || (at == bestAt && seq < bestSeq) {
				best, bestAt, bestSeq = t, at, seq
			}
		}
	}
	if best != nil && qu.wake.Pending() && qu.wakeSeq == bestSeq {
		return
	}
	qu.wake.Cancel()
	if best != nil {
		qu.wake = n.eng.AtSeqArg(bestAt, bestSeq, n.txSegFn, best)
		qu.wakeSeq = bestSeq
	}
}

// txPending credits the lazy segments that have left the wire and
// returns the queue's uncleaned completions.
func (n *NIC) txPending(qu *queue) int {
	n.credit(qu)
	return qu.txPending
}

// TxPending returns the number of uncleaned Tx completions on queue q.
func (n *NIC) TxPending(q int) int { return n.txPending(n.qs[q]) }

// TxClean reaps up to max Tx completions from queue q (the Tx half of
// the NAPI poll routine) and returns how many were cleaned. The kernel
// always passes its 256-completion budget; max stays a parameter because
// FuzzTxElisionEquivalence reaps with budgets of 0–4 (and 0–8) to compare
// the lazy Tx credit with the reference NIC on partial reaps, which a
// budget of 256 would rarely reach.
func (n *NIC) TxClean(q, max int) int {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return 0
	}
	n.credit(qu)
	if max > qu.txPending {
		max = qu.txPending
	}
	n.aud.Count(audit.TxCleaned, max)
	qu.txPending -= max
	return max
}

// HasWork reports whether queue q has Rx packets or Tx completions
// pending. A stalled or offline queue reports no work: its contents are
// unreachable until the stall lifts or the queue is failed over.
func (n *NIC) HasWork(q int) bool {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return false
	}
	return qu.ring.Len() > 0 || n.txPending(qu) > 0
}

// OfflineQueue hard-fails queue q: its interrupt is torn down, the RSS
// re-steer table sends its flows elsewhere, and every packet stranded in
// the ring is failed into the request ledger via OnRxDrop — a dead
// ring's descriptors are unreachable, so the honest outcome is loss the
// client-side RTO will observe, never silent disappearance.
func (n *NIC) OfflineQueue(q int) {
	qu := n.qs[q]
	if qu.offline {
		return
	}
	qu.offline = true
	n.offlineCount++
	qu.irqEnabled = false
	qu.irqTimer.Cancel()
	n.plan(q)
	for qu.ring.Len() > 0 {
		p := qu.ring.Pop()
		qu.crashFails++
		n.aud.Count(audit.RingCrashFail, 1)
		if n.OnRxDrop != nil {
			n.OnRxDrop(p)
		}
		n.PutPacket(p)
	}
}

// OnlineQueue brings a failed-over queue back: the re-steer table entry
// is restored (new flows hash home again) and the interrupt is re-armed
// for any Tx completions that accumulated while the queue was dead.
func (n *NIC) OnlineQueue(q int) {
	qu := n.qs[q]
	if !qu.offline {
		return
	}
	qu.offline = false
	n.offlineCount--
	qu.irqEnabled = true
	n.maybeInterrupt(q)
	n.plan(q)
}

// StallQueue wedges queue q's Rx ring: DMA keeps landing packets (the
// ring fills and overflows honestly) but the queue raises no interrupts
// and Poll returns nothing until UnstallQueue. Returns false if the
// queue is already stalled or offline (the fault does not stack).
func (n *NIC) StallQueue(q int) bool {
	qu := n.qs[q]
	if qu.stalled || qu.offline {
		return false
	}
	qu.stalled = true
	qu.irqTimer.Cancel()
	n.plan(q)
	return true
}

// UnstallQueue lifts a stall and re-runs the interrupt logic over
// whatever accumulated in the ring while it was stuck.
func (n *NIC) UnstallQueue(q int) {
	qu := n.qs[q]
	if !qu.stalled {
		return
	}
	qu.stalled = false
	n.maybeInterrupt(q)
	n.plan(q)
}

// QueueOffline reports whether queue q is hard-failed.
func (n *NIC) QueueOffline(q int) bool { return n.qs[q].offline }

// QueueStalled reports whether queue q's ring is currently stuck.
func (n *NIC) QueueStalled(q int) bool { return n.qs[q].stalled }

// TotalCrashFails sums the packets failed into the ledger from dead
// rings across all queues.
func (n *NIC) TotalCrashFails() uint64 {
	var s uint64
	for i := range n.qs {
		s += n.qs[i].crashFails
	}
	return s
}

// TotalOutageFails sums the packets failed into the ledger because they
// arrived during a total NIC outage (every queue offline).
func (n *NIC) TotalOutageFails() uint64 {
	var s uint64
	for i := range n.qs {
		s += n.qs[i].outageFails
	}
	return s
}

// Interrupts returns the cumulative interrupt count for queue q.
func (n *NIC) Interrupts(q int) uint64 { return n.qs[q].interrupts }

// TotalDrops sums drops across queues.
func (n *NIC) TotalDrops() uint64 {
	var s uint64
	for i := range n.qs {
		s += n.qs[i].drops
	}
	return s
}
