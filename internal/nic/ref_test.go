package nic

import (
	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
)

// refNIC is the per-segment reference for the lazy Tx path: the device
// model as it was before Transmit stopped scheduling one engine event
// per MTU segment. Every segment is an event that posts its completion
// and runs the interrupt logic. It keeps only what the Tx side touches
// (Rx rings, IRQ gating, ITR, offline and stall), with the same engine,
// injector and auditor calls in the same order, so a seeded run of the
// two must agree on every interrupt, every done and every counter.
type refNIC struct {
	cfg     Config
	eng     *sim.Engine
	qs      []*refQueue
	handler []func()
	inj     *faults.Injector
	aud     *audit.Auditor
}

type refQueue struct {
	ring       sim.FIFO[*Packet]
	batch      []*Packet
	nextIRQ    sim.Time
	txPending  int
	irqEnabled bool
	offline    bool
	stalled    bool
	irqTimer   sim.Event
	irqRetry   func()
	interrupts uint64
}

func newRefNIC(cfg Config, eng *sim.Engine, inj *faults.Injector, aud *audit.Auditor) *refNIC {
	n := &refNIC{cfg: cfg, eng: eng, inj: inj, aud: aud}
	n.qs = make([]*refQueue, cfg.Queues)
	n.handler = make([]func(), cfg.Queues)
	for i := range n.qs {
		q := i
		n.qs[i] = &refQueue{irqEnabled: true}
		n.qs[i].irqRetry = func() { n.maybeInterrupt(q) }
	}
	return n
}

func (n *refNIC) SetHandler(q int, fn func()) { n.handler[q] = fn }

func (n *refNIC) queueFor(flow uint64) int {
	q := int(flow % uint64(n.cfg.Queues))
	if n.qs[q].offline {
		for i := 0; i < n.cfg.Queues; i++ {
			if c := (q + i) % n.cfg.Queues; !n.qs[c].offline {
				return c
			}
		}
	}
	return q
}

func (n *refNIC) Deliver(p *Packet) {
	n.aud.Count(audit.NICDeliver, 1)
	n.eng.Schedule(dmaLatency, func() {
		q := n.queueFor(p.Flow)
		qu := n.qs[q]
		switch {
		case qu.offline:
			n.aud.Count(audit.RingOutageFail, 1)
		case qu.ring.Len() >= n.cfg.RingSize:
			n.aud.Count(audit.RingDrop, 1)
		default:
			p.Arrived = n.eng.Now()
			n.aud.Count(audit.RingAccept, 1)
			qu.ring.Push(p)
			n.maybeInterrupt(q)
		}
	})
}

func (n *refNIC) maybeInterrupt(q int) {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return
	}
	if !qu.irqEnabled || n.handler[q] == nil || (qu.ring.Len() == 0 && qu.txPending == 0) {
		return
	}
	now := n.eng.Now()
	if now >= qu.nextIRQ {
		qu.nextIRQ = now + sim.Time(n.cfg.ITR)
		if n.inj.DropIRQ() {
			return
		}
		qu.irqEnabled = false
		qu.interrupts++
		qu.irqTimer.Cancel()
		n.eng.Schedule(irqLatency+n.inj.IRQJitter(), n.handler[q])
		return
	}
	if !qu.irqTimer.Pending() {
		qu.irqTimer = n.eng.At(qu.nextIRQ, qu.irqRetry)
	}
}

func (n *refNIC) Poll(q, max int) []*Packet {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return qu.batch[:0]
	}
	max = min(max, qu.ring.Len())
	n.aud.Count(audit.Polled, max)
	qu.batch = qu.ring.PopN(qu.batch[:0], max)
	return qu.batch
}

func (n *refNIC) EnableIRQ(q int) {
	if n.qs[q].offline {
		return
	}
	n.qs[q].irqEnabled = true
	n.maybeInterrupt(q)
}

func (n *refNIC) DisableIRQ(q int) {
	n.qs[q].irqEnabled = false
	n.qs[q].irqTimer.Cancel()
}

// Transmit schedules one event per segment, all up front.
func (n *refNIC) Transmit(q int, p *Packet, segments int, done func(*Packet)) {
	if segments < 1 {
		segments = 1
	}
	n.aud.TxStart(segments)
	remaining := segments
	seg := func() {
		n.aud.TxSegments(1)
		n.qs[q].txPending++
		n.maybeInterrupt(q)
		remaining--
		if remaining == 0 && done != nil {
			done(p)
		}
	}
	for i := 1; i <= segments; i++ {
		n.eng.Schedule(txLatency+sim.Duration(i)*txWire, seg)
	}
}

func (n *refNIC) TxPending(q int) int { return n.qs[q].txPending }

func (n *refNIC) TxClean(q, max int) int {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return 0
	}
	max = min(max, qu.txPending)
	n.aud.Count(audit.TxCleaned, max)
	qu.txPending -= max
	return max
}

func (n *refNIC) HasWork(q int) bool {
	qu := n.qs[q]
	if qu.offline || qu.stalled {
		return false
	}
	return qu.ring.Len() > 0 || qu.txPending > 0
}

func (n *refNIC) OfflineQueue(q int) {
	qu := n.qs[q]
	if qu.offline {
		return
	}
	qu.offline = true
	qu.irqEnabled = false
	qu.irqTimer.Cancel()
	for qu.ring.Len() > 0 {
		qu.ring.Pop()
		n.aud.Count(audit.RingCrashFail, 1)
	}
}

func (n *refNIC) OnlineQueue(q int) {
	qu := n.qs[q]
	if !qu.offline {
		return
	}
	qu.offline = false
	qu.irqEnabled = true
	n.maybeInterrupt(q)
}

func (n *refNIC) StallQueue(q int) bool {
	qu := n.qs[q]
	if qu.stalled || qu.offline {
		return false
	}
	qu.stalled = true
	qu.irqTimer.Cancel()
	return true
}

func (n *refNIC) UnstallQueue(q int) {
	qu := n.qs[q]
	if !qu.stalled {
		return
	}
	qu.stalled = false
	n.maybeInterrupt(q)
}

func (n *refNIC) QueueLen(q int) int      { return n.qs[q].ring.Len() }
func (n *refNIC) Interrupts(q int) uint64 { return n.qs[q].interrupts }
func (n *refNIC) GetPacket() *Packet      { return &Packet{} }
func (n *refNIC) PutPacket(*Packet)       {}
func (n *refNIC) QueueStalled(q int) bool { return n.qs[q].stalled }
func (n *refNIC) QueueOffline(q int) bool { return n.qs[q].offline }
