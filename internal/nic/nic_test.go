package nic

import (
	"testing"
	"testing/quick"

	"nmapsim/internal/sim"
)

func testNIC(queues int) (*sim.Engine, *NIC) {
	eng := sim.NewEngine()
	n := New(DefaultConfig(queues), eng, 42)
	return eng, n
}

func TestDeliverLandsAfterDMA(t *testing.T) {
	eng, n := testNIC(1)
	n.SetHandler(0, func() {})
	p := &Packet{ID: 1, Flow: 0, Sent: 0}
	n.Deliver(p)
	eng.RunAll()
	if p.Arrived != sim.Time(2*sim.Microsecond) {
		t.Fatalf("arrived at %v, want 2µs DMA", p.Arrived)
	}
}

func TestInterruptFiresOnceThenMasks(t *testing.T) {
	eng, n := testNIC(1)
	irqs := 0
	n.SetHandler(0, func() { irqs++ })
	for i := 0; i < 5; i++ {
		n.Deliver(&Packet{ID: uint64(i)})
	}
	eng.RunAll()
	if irqs != 1 {
		t.Fatalf("irqs = %d, want 1 (handler masks further interrupts)", irqs)
	}
	if n.QueueLen(0) != 5 {
		t.Fatalf("ring holds %d, want 5", n.QueueLen(0))
	}
}

func TestEnableIRQRefiresForPendingPackets(t *testing.T) {
	eng, n := testNIC(1)
	irqs := 0
	n.SetHandler(0, func() { irqs++ })
	n.Deliver(&Packet{ID: 1})
	eng.RunAll()
	// Drain and re-enable with a new packet already in the ring: the
	// interrupt must re-fire (after the ITR window).
	n.Poll(0, 64)
	n.Deliver(&Packet{ID: 2})
	eng.RunAll() // lands but IRQ masked
	if irqs != 1 {
		t.Fatalf("irqs = %d before enable", irqs)
	}
	n.EnableIRQ(0)
	eng.RunAll()
	if irqs != 2 {
		t.Fatalf("irqs = %d after enable, want 2", irqs)
	}
}

func TestITRSpacing(t *testing.T) {
	eng, n := testNIC(1)
	var irqTimes []sim.Time
	n.SetHandler(0, func() {
		irqTimes = append(irqTimes, eng.Now())
		// Immediately drain and re-enable, like a fast NAPI cycle.
		n.Poll(0, 64)
		n.EnableIRQ(0)
	})
	// Deliver packets every 1µs for 50µs: interrupts must be spaced by
	// at least the 10µs ITR.
	for i := 0; i < 50; i++ {
		d := sim.Duration(i) * sim.Microsecond
		pid := uint64(i)
		eng.Schedule(d, func() { n.Deliver(&Packet{ID: pid}) })
	}
	eng.RunAll()
	if len(irqTimes) < 3 {
		t.Fatalf("too few interrupts: %d", len(irqTimes))
	}
	for i := 1; i < len(irqTimes); i++ {
		gap := sim.Duration(irqTimes[i] - irqTimes[i-1])
		if gap < 10*sim.Microsecond {
			t.Fatalf("interrupt gap %v < ITR 10µs", gap)
		}
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng, n := testNIC(1)
	n.SetHandler(0, func() {})
	for i := 0; i < 600; i++ {
		n.Deliver(&Packet{ID: uint64(i)})
	}
	eng.RunAll()
	if n.QueueLen(0) != 512 {
		t.Fatalf("ring = %d, want capped at 512", n.QueueLen(0))
	}
	if n.TotalDrops() != 88 {
		t.Fatalf("drops = %d, want 88", n.TotalDrops())
	}
}

func TestPollDequeuesFIFO(t *testing.T) {
	eng, n := testNIC(1)
	n.SetHandler(0, func() {})
	for i := 0; i < 10; i++ {
		n.Deliver(&Packet{ID: uint64(i)})
	}
	eng.RunAll()
	batch := n.Poll(0, 4)
	if len(batch) != 4 {
		t.Fatalf("poll returned %d, want 4", len(batch))
	}
	for i, p := range batch {
		if p.ID != uint64(i) {
			t.Fatalf("poll order wrong: %d at %d", p.ID, i)
		}
	}
	if n.QueueLen(0) != 6 {
		t.Fatalf("ring = %d after poll, want 6", n.QueueLen(0))
	}
	rest := n.Poll(0, 100)
	if len(rest) != 6 || rest[0].ID != 4 {
		t.Fatalf("second poll broken: len=%d", len(rest))
	}
}

func TestRSSCoversAllQueuesRoughlyEvenly(t *testing.T) {
	_, n := testNIC(8)
	counts := make([]int, 8)
	for flow := uint64(0); flow < 4000; flow++ {
		counts[n.QueueFor(flow)]++
	}
	for q, c := range counts {
		if c < 300 || c > 700 {
			t.Fatalf("queue %d got %d of 4000 flows; RSS too skewed", q, c)
		}
	}
}

// Property: RSS is a pure function of (flow, seed).
func TestRSSDeterministicProperty(t *testing.T) {
	_, n := testNIC(8)
	f := func(flow uint64) bool {
		a := n.QueueFor(flow)
		b := n.QueueFor(flow)
		return a == b && a >= 0 && a < 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTransmitLatency(t *testing.T) {
	eng, n := testNIC(1)
	var doneAt sim.Time
	n.Transmit(0, &Packet{ID: 9}, 1, func(*Packet) { doneAt = eng.Now() })
	eng.RunAll()
	want := sim.Time(1*sim.Microsecond + 1200)
	if doneAt != want {
		t.Fatalf("tx completed at %v, want %v (DMA + 1 segment wire)", doneAt, want)
	}
	if n.TxPending(0) != 1 {
		t.Fatalf("txPending = %d, want 1 completion to clean", n.TxPending(0))
	}
}

func TestTransmitSegmentsPostCompletions(t *testing.T) {
	eng, n := testNIC(1)
	n.SetHandler(0, func() {})
	var doneAt sim.Time
	n.Transmit(0, &Packet{ID: 1}, 5, func(*Packet) { doneAt = eng.Now() })
	eng.RunAll()
	want := sim.Time(1*sim.Microsecond + 5*1200)
	if doneAt != want {
		t.Fatalf("last segment left at %v, want %v", doneAt, want)
	}
	if n.TxPending(0) != 5 {
		t.Fatalf("txPending = %d, want 5", n.TxPending(0))
	}
	if got := n.TxClean(0, 3); got != 3 {
		t.Fatalf("TxClean reaped %d, want 3", got)
	}
	if n.TxPending(0) != 2 {
		t.Fatalf("txPending = %d after clean, want 2", n.TxPending(0))
	}
	if got := n.TxClean(0, 100); got != 2 {
		t.Fatalf("TxClean reaped %d, want 2", got)
	}
	if n.HasWork(0) {
		t.Fatal("HasWork true after full clean")
	}
}

func TestTxCompletionRaisesInterrupt(t *testing.T) {
	eng, n := testNIC(1)
	irqs := 0
	n.SetHandler(0, func() { irqs++ })
	n.Transmit(0, &Packet{ID: 2}, 1, func(*Packet) {})
	eng.RunAll()
	if irqs != 1 {
		t.Fatalf("tx completion raised %d interrupts, want 1", irqs)
	}
}

func TestDisableIRQSuppressesTimer(t *testing.T) {
	eng, n := testNIC(1)
	irqs := 0
	n.SetHandler(0, func() {
		irqs++
		n.Poll(0, 64)
		n.EnableIRQ(0)
	})
	n.Deliver(&Packet{ID: 1})
	eng.RunAll()
	// Within ITR window: next delivery arms a timer; disabling must
	// cancel it.
	n.Deliver(&Packet{ID: 2})
	n.DisableIRQ(0)
	eng.RunAll()
	if irqs != 1 {
		t.Fatalf("irqs = %d, want 1 (timer cancelled by DisableIRQ)", irqs)
	}
}

func TestInterruptCountPerQueue(t *testing.T) {
	eng, n := testNIC(2)
	n.SetHandler(0, func() {})
	n.SetHandler(1, func() {})
	// Find a flow hashing to each queue.
	var f0, f1 uint64
	for f := uint64(0); ; f++ {
		if n.QueueFor(f) == 0 {
			f0 = f
			break
		}
	}
	for f := uint64(0); ; f++ {
		if n.QueueFor(f) == 1 {
			f1 = f
			break
		}
	}
	n.Deliver(&Packet{ID: 1, Flow: f0})
	n.Deliver(&Packet{ID: 2, Flow: f1})
	eng.RunAll()
	if n.Interrupts(0) != 1 || n.Interrupts(1) != 1 {
		t.Fatalf("interrupts = %d,%d want 1,1", n.Interrupts(0), n.Interrupts(1))
	}
}

// The seeded hash deals 64 sequential flows within ±20% of uniform
// across 8 queues (the satellite distribution guarantee RSS relies on).
func TestHashRSSWithin20PctOfUniform(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.HashRSS = true
	n := New(cfg, sim.NewEngine(), 42)
	const flows = 64
	counts := make([]float64, 8)
	for f := uint64(0); f < flows; f++ {
		counts[n.QueueFor(f)]++
	}
	mean := float64(flows) / 8
	for q, c := range counts {
		if c < mean*0.8 || c > mean*1.2 {
			t.Fatalf("queue %d got %.0f of %d flows; want within ±20%% of %.1f", q, c, flows, mean)
		}
	}
}

// Steering purity across a re-steer table rebuild: every flow maps to
// the same queue on every call; killing one queue re-steers only the
// flows homed there (survivors keep their mapping, so their RSS state
// stays warm); recovery restores the original table. Checked on both
// the round-robin and the seeded-hash paths.
func TestRSSPurityAcrossResteer(t *testing.T) {
	for _, hash := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.HashRSS = hash
		n := New(cfg, sim.NewEngine(), 42)
		const flows = 64
		home := make([]int, flows)
		for f := range home {
			home[f] = n.QueueFor(uint64(f))
			if again := n.QueueFor(uint64(f)); again != home[f] {
				t.Fatalf("hash=%v: flow %d steered to %d then %d", hash, f, home[f], again)
			}
		}
		const dead = 1
		n.OfflineQueue(dead)
		adopt := n.NextOnlineQueue(dead)
		if adopt == dead {
			t.Fatalf("hash=%v: no online adoption target", hash)
		}
		for f := range home {
			want := home[f]
			if want == dead {
				want = adopt
			}
			if got := n.QueueFor(uint64(f)); got != want {
				t.Fatalf("hash=%v: flow %d steered to %d after crash, want %d (home %d)",
					hash, f, got, want, home[f])
			}
		}
		n.OnlineQueue(dead)
		for f := range home {
			if got := n.QueueFor(uint64(f)); got != home[f] {
				t.Fatalf("hash=%v: flow %d steered to %d after recovery, want home %d",
					hash, f, got, home[f])
			}
		}
	}
}

// A stalled ring accepts DMA but raises no interrupts and yields no
// polls; unstalling re-arms the interrupt for the backlog.
func TestStallQueueSuppressesIRQAndPoll(t *testing.T) {
	eng, n := testNIC(1)
	irqs := 0
	n.SetHandler(0, func() { irqs++ })
	if !n.StallQueue(0) {
		t.Fatal("StallQueue refused a healthy queue")
	}
	if n.StallQueue(0) {
		t.Fatal("StallQueue stalled an already-stalled queue")
	}
	for i := 0; i < 5; i++ {
		n.Deliver(&Packet{ID: uint64(i)})
	}
	eng.RunAll()
	if irqs != 0 {
		t.Fatalf("stalled queue raised %d interrupts", irqs)
	}
	if n.QueueLen(0) != 5 {
		t.Fatalf("ring = %d, want 5 (DMA still lands during a stall)", n.QueueLen(0))
	}
	if got := n.Poll(0, 10); len(got) != 0 {
		t.Fatalf("poll returned %d packets from a stalled ring", len(got))
	}
	if n.HasWork(0) {
		t.Fatal("a stalled queue must not advertise work")
	}
	n.UnstallQueue(0)
	eng.RunAll()
	if irqs != 1 {
		t.Fatalf("unstall raised %d interrupts for the backlog, want 1", irqs)
	}
	if got := n.Poll(0, 10); len(got) != 5 {
		t.Fatalf("poll after unstall returned %d, want 5", len(got))
	}
}

// Taking a queue offline fails its ring contents into the ledger (via
// OnRxDrop and the crash-fail counter) and re-steers later deliveries.
func TestOfflineQueueFailsRingAndResteersDMA(t *testing.T) {
	eng, n := testNIC(2)
	n.SetHandler(0, func() {})
	n.SetHandler(1, func() {})
	dropped := 0
	n.OnRxDrop = func(p *Packet) { dropped++ }
	for i := 0; i < 5; i++ {
		n.Deliver(&Packet{ID: uint64(i), Flow: 1})
	}
	eng.RunAll()
	if n.QueueLen(1) != 5 {
		t.Fatalf("ring 1 = %d, want 5", n.QueueLen(1))
	}
	n.OfflineQueue(1)
	if dropped != 5 || n.TotalCrashFails() != 5 {
		t.Fatalf("offline failed %d packets (crash-fails %d), want 5", dropped, n.TotalCrashFails())
	}
	if n.QueueLen(1) != 0 || n.HasWork(1) {
		t.Fatal("offline queue still holds work")
	}
	// A packet already in DMA flight for flow 1 re-steers to queue 0.
	n.Deliver(&Packet{ID: 9, Flow: 1})
	eng.RunAll()
	if n.QueueLen(0) != 1 || n.QueueLen(1) != 0 {
		t.Fatalf("post-crash delivery landed on rings (%d,%d), want (1,0)",
			n.QueueLen(0), n.QueueLen(1))
	}
	n.OnlineQueue(1)
	n.Deliver(&Packet{ID: 10, Flow: 1})
	eng.RunAll()
	if n.QueueLen(1) != 1 {
		t.Fatalf("recovered queue got %d packets, want 1", n.QueueLen(1))
	}
}

// Total NIC outage: when the LAST online queue goes down there is no
// re-steer target left — NextOnlineQueue reports the dead queue itself
// and deliveries fail into the ledger with the explicit outage reason
// (never masquerading as ring overflow or a dead-ring crash fail, and
// never stranding in a dead ring). Recovery restores normal landing.
func TestTotalOutageDeliveries(t *testing.T) {
	cases := []struct {
		name string
		// recoverQ brings one queue back before the delivery wave
		// (-1 = the NIC stays dark).
		recoverQ   int
		wantOutage uint64
		wantLanded int
	}{
		{"last-queue-crash", -1, 3, 0},
		{"crash-then-recover", 1, 0, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, n := testNIC(2)
			n.SetHandler(0, func() {})
			n.SetHandler(1, func() {})
			dropped := 0
			n.OnRxDrop = func(p *Packet) { dropped++ }
			n.OfflineQueue(0)
			n.OfflineQueue(1) // the last queue: total outage
			if got := n.NextOnlineQueue(1); got != 1 {
				t.Fatalf("NextOnlineQueue during total outage = %d, want the dead queue itself", got)
			}
			if tc.recoverQ >= 0 {
				n.OnlineQueue(tc.recoverQ)
			}
			for i := 0; i < 3; i++ {
				n.Deliver(&Packet{ID: uint64(i), Flow: uint64(i)})
			}
			eng.RunAll()
			if got := n.TotalOutageFails(); got != tc.wantOutage {
				t.Fatalf("outage fails = %d, want %d", got, tc.wantOutage)
			}
			if landed := n.QueueLen(0) + n.QueueLen(1); landed != tc.wantLanded {
				t.Fatalf("landed = %d, want %d", landed, tc.wantLanded)
			}
			if tc.wantOutage > 0 {
				// The ledger hook must fire for every refused packet, and the
				// reason must be the outage counter alone.
				if dropped != int(tc.wantOutage) {
					t.Fatalf("OnRxDrop fired %d times, want %d", dropped, tc.wantOutage)
				}
				if n.TotalDrops() != 0 || n.TotalCrashFails() != 0 {
					t.Fatalf("outage misfiled as overflow (%d) or crash fail (%d)",
						n.TotalDrops(), n.TotalCrashFails())
				}
			}
		})
	}
}

// benchmarkTransmit drives back-to-back transmits of the given size
// through one queue whose interrupt handler cleans the completions and
// unmasks, as the NAPI poll routine does.
func benchmarkTransmit(b *testing.B, segments int) {
	eng, n := testNIC(1)
	n.SetHandler(0, func() {
		n.TxClean(0, 64)
		if !n.HasWork(0) {
			n.EnableIRQ(0)
		}
	})
	p := &Packet{}
	done := func(*Packet) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Transmit(0, p, segments, done)
		eng.RunAll()
	}
}

// BenchmarkTransmitSingleSegment is memcached's Tx path: every transmit
// is one segment event.
func BenchmarkTransmitSingleSegment(b *testing.B) { benchmarkTransmit(b, 1) }

// BenchmarkTransmit48Segments is nginx's Tx path.
func BenchmarkTransmit48Segments(b *testing.B) { benchmarkTransmit(b, 48) }
