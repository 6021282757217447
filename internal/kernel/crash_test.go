package kernel

import (
	"testing"

	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Crash landing mid-poll: the batch was already drained from the ring
// and is owned by the cancelled pass, so every payload in it fails into
// the ledger — requests never vanish.
func TestCrashMidPollFailsBatch(t *testing.T) {
	r := newRig(320000, cpu.CC0) // 100µs per request keeps the app busy
	r.deliver(20)
	var stranded []*workload.Request
	r.eng.Schedule(sim.Duration(10*sim.Microsecond), func() {
		if r.k.PollInFlight() == 0 {
			t.Fatal("test lost its timing: no poll pass in flight at 10µs")
		}
		stranded = r.k.Crash()
	})
	drain(r.eng)
	c := r.k.Counters()
	if !r.k.Offline() {
		t.Fatal("kernel not offline after Crash")
	}
	if c.Completed != 0 || len(r.done) != 0 {
		t.Fatalf("completed=%d after a crash before any app run", c.Completed)
	}
	if int(c.CrashFails)+len(stranded) != 20 {
		t.Fatalf("conservation broken: crashFails=%d stranded=%d, want 20 total",
			c.CrashFails, len(stranded))
	}
	if c.CrashFails == 0 {
		t.Fatal("mid-poll batch payloads were not failed into the ledger")
	}
	if r.k.PollInFlight() != 0 || r.k.SockQLen() != 0 || r.k.AppInFlight() != 0 {
		t.Fatalf("crash left work behind: poll=%d sockq=%d app=%d",
			r.k.PollInFlight(), r.k.SockQLen(), r.k.AppInFlight())
	}
}

// Crash during app execution: the held request dies with the core, but
// the socket-queue backlog survives in memory and is handed to the
// caller; a fresh kernel adopts and completes it.
func TestCrashStrandsSockQForAdoption(t *testing.T) {
	r := newRig(320000, cpu.CC0)
	r.deliver(20)
	var stranded []*workload.Request
	r.eng.Schedule(sim.Duration(50*sim.Microsecond), func() {
		if r.k.AppInFlight() == 0 || r.k.SockQLen() == 0 {
			t.Fatalf("test lost its timing: app=%d sockq=%d at 50µs",
				r.k.AppInFlight(), r.k.SockQLen())
		}
		stranded = r.k.Crash()
	})
	drain(r.eng)
	c := r.k.Counters()
	if c.CrashFails != 1 {
		t.Fatalf("crashFails=%d, want exactly the held app request", c.CrashFails)
	}
	if len(stranded) != 19 {
		t.Fatalf("stranded=%d, want the 19 queued requests", len(stranded))
	}
	// A surviving core adopts the backlog and finishes the work.
	adopter := newRig(3200, cpu.CC0)
	adopter.k.Adopt(stranded)
	drain(adopter.eng)
	if got := adopter.k.Counters().Completed; got != 19 {
		t.Fatalf("adoptive core completed %d of 19 stranded requests", got)
	}
}

// A survivor under pressure cannot absorb an unbounded backlog: adopted
// requests beyond SockQCap are failed into the ledger, never dropped
// silently.
func TestAdoptOverflowFailsIntoLedger(t *testing.T) {
	eng := sim.NewEngine()
	core := cpu.NewCore(0, cpu.XeonGold6134, eng, sim.NewRNG(1))
	dev := newRig(3200, cpu.CC0).dev // unused transport; Adopt needs none
	k := NewCoreKernel(0, eng, core, dev, Config{SockQCap: 4}, fixedIdle{cpu.CC0})
	k.Start()
	backlog := make([]*workload.Request, 10)
	for i := range backlog {
		backlog[i] = &workload.Request{ID: uint64(i), AppCycles: 3200}
	}
	k.Adopt(backlog)
	drain(eng)
	c := k.Counters()
	if c.CrashFails != 6 {
		t.Fatalf("crashFails=%d, want 6 overflow failures above SockQCap=4", c.CrashFails)
	}
	if c.Completed != 4 {
		t.Fatalf("completed=%d, want the 4 adopted requests", c.Completed)
	}
	if c.MaxSockQ > 4 {
		t.Fatalf("adoption overflowed SockQCap: maxSockQ=%d", c.MaxSockQ)
	}
}

// An offline kernel is inert — interrupts, ticks and dispatch are all
// no-ops until Recover. The full teardown mirrors the server's
// choreography (OfflineQueue around Crash, OnlineQueue after Recover):
// this rig has a single queue, so offlining it is a total NIC outage —
// post-crash deliveries fail into the ledger with the explicit outage
// reason (never landing in the dead ring, never vanishing silently),
// and fresh deliveries after recovery complete normally.
func TestOfflineKernelIgnoresWorkUntilRecover(t *testing.T) {
	r := newRig(3200, cpu.CC0)
	r.deliver(2)
	drain(r.eng)
	if got := r.k.Counters().Completed; got != 2 {
		t.Fatalf("warmup completed=%d, want 2", got)
	}
	r.dev.OfflineQueue(0)
	if stranded := r.k.Crash(); len(stranded) != 0 {
		t.Fatalf("idle crash stranded %d requests", len(stranded))
	}
	irqsBefore := r.k.Counters().Interrupts
	r.deliver(3)
	drain(r.eng)
	c := r.k.Counters()
	if c.Completed != 2 || c.Interrupts != irqsBefore {
		t.Fatalf("offline kernel did work: completed=%d interrupts=%d (was %d)",
			c.Completed, c.Interrupts, irqsBefore)
	}
	if got := r.dev.TotalOutageFails(); got != 3 {
		t.Fatalf("outage fails=%d, want the 3 deliveries during total outage", got)
	}
	// Double-crash is idempotent: nothing new to strand.
	if stranded := r.k.Crash(); stranded != nil {
		t.Fatalf("second Crash returned %d requests", len(stranded))
	}
	r.k.Recover()
	if r.k.Offline() {
		t.Fatal("kernel still offline after Recover")
	}
	r.dev.OnlineQueue(0)
	r.deliver(3)
	drain(r.eng)
	if got := r.k.Counters().Completed; got != 5 {
		t.Fatalf("completed=%d after recovery, want 5 (2 warmup + 3 fresh; outage deliveries failed)", got)
	}
}
