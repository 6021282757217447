package kernel

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/nic"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// TestSchedulerTickMigratesToKsoftirqd exercises §2.1's third migration
// condition: a scheduler tick landing while the softirq is processing
// and the app thread is runnable sets the reschedule flag, and the
// softirq hands the NAPI context to ksoftirqd at the end of the pass —
// even though neither the 10-iteration nor the 8ms condition fired.
func TestSchedulerTickMigratesToKsoftirqd(t *testing.T) {
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	core.SetPState(15) // slow clock: softirq sessions stretch out
	eng.RunAll()
	dev := nic.New(nic.DefaultConfig(1), eng, 7)
	rec := &recListener{}
	k := NewCoreKernel(0, eng, core, dev, Config{}, fixedIdle{cpu.CC0})
	k.AddListener(rec)
	k.Start()
	// Sustained trickle: each packet's softirq work (~3µs at P15) keeps
	// NAPI active a large fraction of the time, but the ring never goes
	// 10-deep, so only the tick condition can migrate.
	for i := 0; i < 4000; i++ {
		d := sim.Duration(i) * 3 * sim.Microsecond
		id := uint64(i)
		eng.Schedule(d, func() {
			dev.Deliver(&nic.Packet{ID: id, Flow: id, Payload: &workload.Request{ID: id, AppCycles: 60_000}}) // 50µs at P15: app always runnable
		})
	}
	eng.Run(sim.Time(14 * sim.Millisecond)) // covers 3 scheduler ticks
	if rec.ksWakes == 0 {
		t.Fatal("scheduler tick never migrated NAPI to ksoftirqd")
	}
	c := k.Counters()
	if c.PktPoll == 0 {
		t.Fatal("ksoftirqd processing produced no polling-mode packets")
	}
}

// TestNoTickMigrationWithoutAppBacklog: the same trickle with a trivial
// app cost keeps the app queue empty, so the reschedule flag never sets
// and ksoftirqd stays asleep.
func TestNoTickMigrationWithoutAppBacklog(t *testing.T) {
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	dev := nic.New(nic.DefaultConfig(1), eng, 7)
	rec := &recListener{}
	k := NewCoreKernel(0, eng, core, dev, Config{}, fixedIdle{cpu.CC0})
	k.AddListener(rec)
	k.Start()
	for i := 0; i < 1000; i++ {
		d := sim.Duration(i) * 10 * sim.Microsecond
		id := uint64(i)
		eng.Schedule(d, func() { dev.Deliver(&nic.Packet{ID: id, Flow: id, Payload: &workload.Request{ID: id, AppCycles: 100}}) })
	}
	eng.Run(sim.Time(20 * sim.Millisecond))
	if rec.ksWakes != 0 {
		t.Fatalf("ksoftirqd woke %d times at a drained low rate", rec.ksWakes)
	}
}

// TestSoftirqTimeLimitMigration exercises the 2-tick (8ms) condition in
// isolation: one enormous standing queue with a huge ring, drained by a
// very slow kernel, and no app work to trip the resched path.
func TestSoftirqTimeLimitMigration(t *testing.T) {
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	core.SetPState(15)
	eng.RunAll()
	ncfg := nic.DefaultConfig(1)
	ncfg.RingSize = 1 << 16
	dev := nic.New(ncfg, eng, 7)
	rec := &recListener{}
	// MaxPollPasses enormous so only the time limit can fire; no
	// payloads, so the app never becomes runnable.
	k := NewCoreKernel(0, eng, core, dev, Config{MaxPollPasses: 1 << 30}, fixedIdle{cpu.CC0})
	k.AddListener(rec)
	k.Start()
	for i := 0; i < 30_000; i++ {
		dev.Deliver(&nic.Packet{ID: uint64(i), Flow: uint64(i)}) // Payload nil: pure kernel work
	}
	eng.Run(sim.Time(200 * sim.Millisecond))
	if rec.ksWakes == 0 {
		t.Fatal("softirq time limit never migrated to ksoftirqd")
	}
}

// TestNilPayloadPacketsSkipSockQ: Tx-completion-like packets must cost
// kernel cycles but never reach the application.
func TestNilPayloadPacketsSkipSockQ(t *testing.T) {
	r := newRig(1000, cpu.CC0)
	for i := 0; i < 10; i++ {
		r.dev.Deliver(&nic.Packet{ID: uint64(i), Flow: uint64(i)}) // nil payload
	}
	drain(r.eng)
	c := r.k.Counters()
	if c.Completed != 0 {
		t.Fatalf("nil-payload packets completed as requests: %d", c.Completed)
	}
	if c.PktIntr+c.PktPoll != 10 {
		t.Fatalf("kernel processed %d packets, want 10", c.PktIntr+c.PktPoll)
	}
}

// TestTxCompletionsProcessedBySoftirq: a transmit through the NIC posts
// completions that the poll loop must clean and count.
func TestTxCompletionsProcessedBySoftirq(t *testing.T) {
	r := newRig(1000, cpu.CC0)
	done := false
	r.dev.Transmit(0, &nic.Packet{ID: 1}, 5, func(*nic.Packet) { done = true })
	drain(r.eng)
	if !done {
		t.Fatal("transmit never completed")
	}
	c := r.k.Counters()
	if c.PktIntr+c.PktPoll != 5 {
		t.Fatalf("counted %d processed, want 5 Tx completions", c.PktIntr+c.PktPoll)
	}
	if r.dev.TxPending(0) != 0 {
		t.Fatalf("tx completions left pending: %d", r.dev.TxPending(0))
	}
}

// TestBusyCoreConservesWork: total busy time equals the cycle cost of
// everything processed, independent of preemption and scheduling order.
func TestBusyCoreConservesWork(t *testing.T) {
	r := newRig(5000, cpu.CC0)
	const n = 200
	for i := 0; i < n; i++ {
		d := sim.Duration(i) * 7 * sim.Microsecond
		id := uint64(i)
		r.eng.Schedule(d, func() {
			r.dev.Deliver(&nic.Packet{ID: id, Flow: id, Payload: &workload.Request{ID: id, AppCycles: r.appCycles}})
		})
	}
	drain(r.eng)
	c := r.k.Counters()
	if c.Completed != n {
		t.Fatalf("completed %d, want %d", c.Completed, n)
	}
	acct := r.k.Core().Snapshot()
	cfg := DefaultConfig()
	// Expected cycles: per-packet Rx + per-request app + hardirqs +
	// per-pass overheads (the rig does not transmit, so no Tx cleaning).
	// Overheads and pass counts vary with scheduling, so check the tight
	// lower bound and a loose upper bound.
	min := float64(n)*(cfg.PerPktCycles+5000) + float64(c.Interrupts)*cfg.IRQCycles
	busyCycles := float64(acct.BusyNs) * 3.2 // ns × GHz at P0
	if busyCycles < min {
		t.Fatalf("busy cycles %.0f below the work floor %.0f", busyCycles, min)
	}
	if busyCycles > min*1.5 {
		t.Fatalf("busy cycles %.0f exceed 1.5x the work floor %.0f (overheads exploded)", busyCycles, min)
	}
}
