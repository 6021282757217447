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
	// DMALatency is the wire-to-ring latency (PCIe DMA + descriptor
	// write-back).
	DMALatency sim.Duration
	// ITR is the minimum spacing between interrupts on one queue
	// (10µs on the 82599 per §5.1).
	ITR sim.Duration
	// IRQLatency is the time from interrupt assertion to the handler
	// starting on the core (APIC delivery).
	IRQLatency sim.Duration
	// TxLatency is the transmit-side DMA cost charged between the
	// kernel handing a response off and the first segment reaching the
	// wire.
	TxLatency sim.Duration
	// TxWire is the per-segment wire serialisation time (≈1.2µs per
	// 1500B MTU segment at 10GbE). Each segment that leaves the wire
	// posts a Tx-completion the softirq must clean (Fig 1 ⑤-⑧).
	TxWire sim.Duration
	// HashRSS selects seeded-hash flow steering, which deals flows to
	// queues unevenly (real Toeplitz-hash lumpiness). The default
	// (false) spreads flows round-robin — the paper's testbed: "RSS
	// evenly distributes packets in our experimental setup, thus each
	// core handles almost the same amount of network loads".
	HashRSS bool
}

// DefaultConfig mirrors the paper's testbed NIC.
func DefaultConfig(queues int) Config {
	return Config{
		Queues:     queues,
		RingSize:   512,
		DMALatency: 2 * sim.Microsecond,
		ITR:        10 * sim.Microsecond,
		IRQLatency: 1 * sim.Microsecond,
		TxLatency:  1 * sim.Microsecond,
		TxWire:     1200 * sim.Nanosecond,
	}
}

// queue field order is cache-conscious: the per-packet DMA/Poll path
// (ring, batch, nextIRQ, txPending, and the three gate flags) lives in
// the leading cache line; timer plumbing and failure-mode counters that
// are touched per-interrupt or per-fault trail behind.
type queue struct {
	ring      sim.FIFO[*Packet]
	batch     []*Packet // reusable Poll return buffer
	nextIRQ   sim.Time  // earliest instant ITR allows the next interrupt
	txPending int       // Tx completions awaiting softirq cleaning

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
}

// txOp is the pooled in-flight state of one Transmit call: the shared
// argument every per-segment event carries instead of a closure.
type txOp struct {
	q         int
	p         *Packet
	remaining int
	done      func(*Packet)
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
		n.qs[i].irqRetry = func() { n.maybeInterrupt(q) }
	}
	n.dmaFn = n.dmaLand
	n.txSegFn = n.txSegment
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

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// SetHandler attaches the interrupt handler for queue q.
func (n *NIC) SetHandler(q int, fn func()) { n.handler[q] = fn }

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
	n.aud.NICDeliver()
	n.eng.ScheduleArg(n.cfg.DMALatency+n.inj.DMAJitter(), n.dmaFn, p)
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
		n.aud.RingOutageFail()
		if n.OnRxDrop != nil {
			n.OnRxDrop(p)
		}
		n.PutPacket(p)
		return
	}
	if qu.ring.Len() >= n.cfg.RingSize {
		qu.drops++
		n.aud.RingDrop()
		if n.OnRxDrop != nil {
			n.OnRxDrop(p)
		}
		n.PutPacket(p)
		return
	}
	p.Arrived = n.eng.Now()
	n.aud.RingAccept()
	qu.ring.Push(p)
	n.maybeInterrupt(q)
}

// maybeInterrupt raises an interrupt on queue q if the queue has work
// (Rx packets or Tx completions), interrupts are enabled, and the ITR
// allows it; otherwise it arms a timer for the next ITR slot.
func (n *NIC) maybeInterrupt(q int) {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return
	}
	if !qu.irqEnabled || n.handler[q] == nil || (qu.ring.Len() == 0 && qu.txPending == 0) {
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
		n.eng.Schedule(n.cfg.IRQLatency+n.inj.IRQJitter(), h)
		return
	}
	if !qu.irqTimer.Pending() {
		qu.irqTimer = n.eng.At(qu.nextIRQ, qu.irqRetry)
	}
}

// Poll dequeues up to max packets from queue q (the NAPI poll routine).
// The returned slice is a per-queue scratch buffer, valid until the next
// Poll on the same queue — callers must finish with it (and recycle the
// records via PutPacket) before polling again.
func (n *NIC) Poll(q, max int) []*Packet {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return qu.batch[:0]
	}
	max = min(max, qu.ring.Len())
	n.aud.Polled(max)
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
}

// DisableIRQ masks interrupts on queue q.
func (n *NIC) DisableIRQ(q int) {
	n.qs[q].irqEnabled = false
	n.qs[q].irqTimer.Cancel()
}

// Transmit sends a response of the given number of MTU segments back to
// the wire through queue q. Each segment leaving the wire posts one
// Tx-completion that the softirq must clean (TxClean); done fires when
// the last segment has left the NIC (the network substrate adds
// propagation delay from there).
func (n *NIC) Transmit(q int, p *Packet, segments int, done func(*Packet)) {
	if segments < 1 {
		segments = 1
	}
	n.aud.TxStart(segments)
	t := n.getTxOp()
	t.q = q
	t.p = p
	t.remaining = segments
	t.done = done
	for i := 1; i <= segments; i++ {
		n.eng.ScheduleArg(n.cfg.TxLatency+sim.Duration(i)*n.cfg.TxWire, n.txSegFn, t)
	}
}

// txSegment fires once per MTU segment leaving the wire. Segments of
// one Transmit share a pooled txOp and are scheduled at strictly
// increasing instants, so the remaining counter hits zero exactly when
// the old per-segment closures would have run their `last` branch.
func (n *NIC) txSegment(a any) {
	t := a.(*txOp)
	n.aud.TxSegment()
	n.qs[t.q].txPending++
	n.maybeInterrupt(t.q)
	t.remaining--
	if t.remaining == 0 {
		done, p := t.done, t.p
		n.putTxOp(t)
		if done != nil {
			done(p)
		}
	}
}

// TxPending returns the number of uncleaned Tx completions on queue q.
func (n *NIC) TxPending(q int) int { return n.qs[q].txPending }

// TxClean reaps up to max Tx completions from queue q (the Tx half of
// the NAPI poll routine) and returns how many were cleaned.
func (n *NIC) TxClean(q, max int) int {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return 0
	}
	if max > qu.txPending {
		max = qu.txPending
	}
	n.aud.TxCleaned(max)
	qu.txPending -= max
	return max
}

// HasWork reports whether queue q has Rx packets or Tx completions
// pending. A stalled or offline queue reports no work: its contents are
// unreachable until the stall lifts or the queue is failed over.
func (n *NIC) HasWork(q int) bool {
	if n.qs[q].offline || n.qs[q].stalled {
		return false
	}
	return n.qs[q].ring.Len() > 0 || n.qs[q].txPending > 0
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
	for qu.ring.Len() > 0 {
		p := qu.ring.Pop()
		qu.crashFails++
		n.aud.RingCrashFail()
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

// Drops returns the cumulative dropped-packet count for queue q.
func (n *NIC) Drops(q int) uint64 { return n.qs[q].drops }

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
