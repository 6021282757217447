package nic

import (
	"fmt"
	"testing"

	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
)

// txDev is the device surface the differential test drives: *NIC and
// the per-segment reference *refNIC both provide it.
type txDev interface {
	SetHandler(q int, fn func())
	Deliver(p *Packet)
	Poll(q, max int) []*Packet
	EnableIRQ(q int)
	DisableIRQ(q int)
	Transmit(q int, p *Packet, segments int, done func(*Packet))
	TxPending(q int) int
	TxClean(q, max int) int
	HasWork(q int) bool
	OfflineQueue(q int)
	OnlineQueue(q int)
	StallQueue(q int) bool
	UnstallQueue(q int)
	QueueLen(q int) int
	Interrupts(q int) uint64
	QueueStalled(q int) bool
	QueueOffline(q int) bool
	GetPacket() *Packet
	PutPacket(p *Packet)
}

const (
	txQueues = 3
	// txGrid is the time quantum of every driver op, and txLatency,
	// txWire, ITR, irqLatency and dmaLatency are all multiples of it, so
	// ops, segments, ITR slots and interrupts tie at the same instant
	// often.
	txGrid = 200 * sim.Nanosecond
)

func txTestConfig() Config {
	return Config{
		Queues:   txQueues,
		RingSize: 6,
		ITR:      10 * sim.Microsecond,
	}
}

// txWorld is one side of the differential test: an engine, a device, its
// injector and auditor, and the log of everything observable.
type txWorld struct {
	eng *sim.Engine
	dev txDev
	aud *audit.Auditor
	log []string
	// napi counts interrupts; the handler's follow-up poll is a function
	// of it, so both sides run the same NAPI choreography.
	napi int
}

func newTxWorld(elided, eager bool, irqLoss float64, seed uint64) *txWorld {
	w := &txWorld{eng: sim.NewEngine()}
	if eager {
		w.eng.SetWatchdog(1 << 62)
	}
	w.aud = audit.New(w.eng, txQueues, 0, 0)
	var inj *faults.Injector
	if irqLoss > 0 {
		inj = faults.New(faults.Config{IRQLossProb: irqLoss}, sim.NewRNG(seed))
	}
	if elided {
		n := New(txTestConfig(), w.eng, 0)
		n.SetInjector(inj)
		n.SetAuditor(w.aud)
		w.dev = n
	} else {
		w.dev = newRefNIC(txTestConfig(), w.eng, inj, w.aud)
	}
	for q := 0; q < txQueues; q++ {
		q := q
		w.dev.SetHandler(q, func() { w.interrupt(q) })
	}
	return w
}

func (w *txWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.eng.Now())+fmt.Sprintf(format, args...))
}

// interrupt is the handler: log it, then some grid steps later run one
// NAPI pass (drain Rx, clean some Tx) and unmask, or leave the queue
// masked for a driver op to reopen.
func (w *txWorld) interrupt(q int) {
	w.napi++
	k := w.napi
	w.logf("irq q%d", q)
	if k%4 == 3 {
		return
	}
	w.eng.Schedule(sim.Duration(k%7)*txGrid, func() {
		w.poll(q, 4, k%5)
		w.dev.EnableIRQ(q)
	})
}

func (w *txWorld) poll(q, rx, tx int) {
	b := w.dev.Poll(q, rx)
	for _, p := range b {
		w.dev.PutPacket(p)
	}
	c := w.dev.TxClean(q, tx)
	w.logf("poll q%d rx=%d tx=%d work=%v", q, len(b), c, w.dev.HasWork(q))
}

// apply runs one driver op on the world, inside an engine callback.
func (w *txWorld) apply(id int, code, q, arg byte) {
	qi := int(q) % txQueues
	switch code % 10 {
	case 0, 1:
		segs := int(arg)%64 + 1
		p := w.dev.GetPacket()
		p.ID = uint64(id)
		w.dev.Transmit(qi, p, segs, func(p *Packet) {
			w.logf("done %d", p.ID)
			w.dev.PutPacket(p)
		})
	case 2:
		p := w.dev.GetPacket()
		p.ID, p.Flow = uint64(id), uint64(q)
		w.dev.Deliver(p)
	case 3:
		w.poll(qi, int(arg)%5, int(arg)%9)
	case 4:
		w.dev.EnableIRQ(qi)
	case 5:
		w.dev.DisableIRQ(qi)
	case 6:
		w.dev.OfflineQueue(qi)
	case 7:
		w.dev.OnlineQueue(qi)
	case 8:
		w.logf("stall q%d %v", qi, w.dev.StallQueue(qi))
	case 9:
		w.dev.UnstallQueue(qi)
	}
	w.logf("op %d: %s", id, w.queues())
}

// queues renders every queue's TxPending and HasWork readings.
func (w *txWorld) queues() string {
	s := ""
	for q := 0; q < txQueues; q++ {
		s += fmt.Sprintf(" q%d=%d/%v", q, w.dev.TxPending(q), w.dev.HasWork(q))
	}
	return s
}

// state renders everything a caller can read off the device and its
// auditor, for comparison between the sides.
func (w *txWorld) state() string {
	s := fmt.Sprintf("now=%v", w.eng.Now())
	for q := 0; q < txQueues; q++ {
		s += fmt.Sprintf(" q%d[pending=%d work=%v ring=%d irqs=%d off=%v stall=%v]", q,
			w.dev.TxPending(q), w.dev.HasWork(q), w.dev.QueueLen(q), w.dev.Interrupts(q),
			w.dev.QueueOffline(q), w.dev.QueueStalled(q))
	}
	return s + fmt.Sprintf(" %+v", w.aud.TxLedger())
}

// runTxElision drives the lazy NIC and the per-segment reference with
// the op stream in data and fails at the first observable difference.
// The stream is a header byte (IRQ loss rate, and whether the engine
// watchdog is armed, which makes every segment a real event) and then
// 4-byte ops: code, queue, argument and a delay in grid steps. Codes
// 0–9 schedule a device op that many steps ahead (see apply); codes
// 10–12 instead run both engines that far, and code 13 runs them one
// step. Ops scheduled for one instant run in the order they were
// scheduled, interleaved by sequence number with the segments and
// interrupts due then.
func runTxElision(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	hdr := data[0]
	data = data[1:]
	irqLoss := []float64{0, 0, 0.1, 0.5}[hdr&3]
	eager := hdr&4 != 0
	lazy := newTxWorld(true, eager, irqLoss, uint64(hdr))
	ref := newTxWorld(false, false, irqLoss, uint64(hdr))
	step := 0
	compare := func(where string) {
		t.Helper()
		ls, rs := lazy.state(), ref.state()
		if ls != rs {
			t.Fatalf("step %d (%s): state diverges\n lazy: %s\n  ref: %s", step, where, ls, rs)
		}
		for i := range max(len(lazy.log), len(ref.log)) {
			var l, r string
			if i < len(lazy.log) {
				l = lazy.log[i]
			}
			if i < len(ref.log) {
				r = ref.log[i]
			}
			if l != r {
				t.Fatalf("step %d (%s): log diverges at entry %d\n lazy: %q\n  ref: %q", step, where, i, l, r)
			}
		}
		if lf, rf := lazy.eng.Fired(), ref.eng.Fired(); lf != rf {
			t.Fatalf("step %d: fired %d events, reference %d", step, lf, rf)
		}
		if eager {
			if lazy.eng.Dispatched() != ref.eng.Dispatched() || lazy.eng.Pending() != ref.eng.Pending() {
				t.Fatalf("step %d: watchdog armed, yet dispatched/pending %d/%d vs reference %d/%d",
					step, lazy.eng.Dispatched(), lazy.eng.Pending(), ref.eng.Dispatched(), ref.eng.Pending())
			}
		} else if lazy.eng.Dispatched() > ref.eng.Dispatched() {
			t.Fatalf("step %d: lazy NIC dispatched %d events, reference only %d", step, lazy.eng.Dispatched(), ref.eng.Dispatched())
		}
	}
	for ; step < 512 && len(data) >= 4; step++ {
		code, q, arg, k := data[0], data[1], data[2], data[3]
		data = data[4:]
		d := sim.Duration(k) * txGrid
		switch code % 14 {
		case 10, 11, 12:
			for _, w := range []*txWorld{lazy, ref} {
				w.eng.Run(w.eng.Now() + sim.Time(d))
			}
			compare("run")
		case 13:
			for _, w := range []*txWorld{lazy, ref} {
				w.eng.Run(w.eng.Now() + sim.Time(txGrid))
			}
			compare("tick")
		default:
			id := step
			for _, w := range []*txWorld{lazy, ref} {
				w := w
				w.eng.Schedule(d, func() { w.apply(id, code, q, arg) })
			}
		}
	}
	for _, w := range []*txWorld{lazy, ref} {
		for q := 0; q < txQueues; q++ {
			w.dev.OnlineQueue(q)
			w.dev.UnstallQueue(q)
		}
		w.eng.RunAll()
	}
	compare("drain")
	if lazy.eng.Pending() != 0 {
		t.Fatalf("lazy engine holds %d events after the drain", lazy.eng.Pending())
	}
}

// FuzzTxElisionEquivalence is the differential oracle of the lazy Tx
// path: random streams of transmits (1–64 segments), Rx deliveries,
// polls and Tx cleans, IRQ masking, queue offline/online and
// stall/unstall, lost interrupts and same-instant ties must leave the
// lazy NIC and the per-segment reference with the same interrupt and
// done instants, the same TxPending/HasWork readings and the same
// auditor Tx counters and check counts, at every step.
func FuzzTxElisionEquivalence(f *testing.F) {
	// Two overlapping 48-segment transmits on one queue with a poll, a
	// mask and an unmask landing mid-burst.
	f.Add([]byte{2, 0, 0, 47, 0, 0, 0, 47, 9, 3, 0, 4, 20, 5, 0, 0, 30, 4, 0, 0, 41, 10, 0, 0, 200})
	// Offline and stall windows across a burst, under 50% IRQ loss.
	f.Add([]byte{3, 1, 1, 63, 0, 6, 1, 0, 11, 8, 1, 0, 15, 7, 1, 0, 40, 9, 1, 0, 60, 13, 0, 0, 0, 10, 0, 0, 255})
	// The same with the watchdog armed: every segment a real event.
	f.Add([]byte{7, 1, 1, 63, 0, 6, 1, 0, 11, 8, 1, 0, 15, 7, 1, 0, 40, 9, 1, 0, 60, 13, 0, 0, 0, 10, 0, 0, 255})
	f.Fuzz(runTxElision)
}

// TestTxElisionEquivalence runs the differential oracle over a fixed
// set of pseudo-random op streams, so the tier-1 suite covers far more
// than the fuzz seeds without a -fuzz run.
func TestTxElisionEquivalence(t *testing.T) {
	rng := sim.NewRNG(7)
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+4*(16+int(rng.Uint64()%240)))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(i), func(t *testing.T) { runTxElision(t, data) })
	}
}

// TestTxCreditSameInstant reads a masked queue's completions from two
// events at the instant its second segment leaves the wire: one queued
// before the transmit, which must not see that segment yet, and one
// queued after it, which must.
func TestTxCreditSameInstant(t *testing.T) {
	eng := sim.NewEngine()
	n := New(DefaultConfig(1), eng, 0)
	n.SetHandler(0, func() {})
	n.DisableIRQ(0)
	second := sim.Time(txLatency + 2*txWire)
	var got []int
	read := func() { got = append(got, n.TxPending(0)) }
	eng.At(second, read)
	n.Transmit(0, &Packet{}, 5, nil)
	eng.At(second, read)
	eng.RunAll()
	if fmt.Sprint(got) != "[1 2]" || n.TxPending(0) != 5 {
		t.Fatalf("readings at the second segment's instant %v, want [1 2]; final %d, want 5", got, n.TxPending(0))
	}
}

// TestTxElisionCutsEvents pins the point of the lazy path: a lone
// 48-segment transmit on an unmasked queue dispatches one
// interrupt-raising segment event plus the last one, not 48, while
// Fired still counts all 48.
func TestTxElisionCutsEvents(t *testing.T) {
	eng := sim.NewEngine()
	n := New(DefaultConfig(1), eng, 0)
	n.SetHandler(0, func() {})
	done := sim.Time(0)
	n.Transmit(0, &Packet{}, 48, func(*Packet) { done = eng.Now() })
	eng.RunAll()
	want := sim.Time(txLatency + 48*txWire)
	if done != want || n.TxPending(0) != 48 || n.Interrupts(0) != 1 {
		t.Fatalf("done at %v (want %v), pending %d (want 48), irqs %d (want 1)", done, want, n.TxPending(0), n.Interrupts(0))
	}
	// The first segment raises the interrupt, the last runs done, and
	// the interrupt handler is the third event.
	if eng.Dispatched() != 3 || eng.Fired() != 49 {
		t.Fatalf("dispatched %d events (want 3), fired %d (want 49)", eng.Dispatched(), eng.Fired())
	}
}
