package sim

import "testing"

// TestCalibrateAnchorsAtEarliestPending pins the window anchor of a
// rebuild: a drift recalibration that runs while every pending event lies
// beyond the new window must still leave the cached minimum in a rung.
// Here a 10ns self-rescheduling chain narrows the horizon EWMA until the
// 4096th fire (the periodic drift check) rebuilds at 16ns rungs; the
// chain stops at that fire, so the only event left is one ~1s out. A
// window anchored at the clock would push it to the overflow ladder and
// leave it cached as the minimum for the next fire.
func TestCalibrateAnchorsAtEarliestPending(t *testing.T) {
	e := NewEngine()
	farFired := false
	e.Schedule(Second, func() { farFired = true })
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < recalPeriod+1 {
			e.Schedule(10, tick)
		}
	}
	e.Schedule(10, tick)
	e.RunAll()
	if n != recalPeriod+1 || !farFired {
		t.Fatalf("chain fired %d times (want %d), far event fired=%v", n, recalPeriod+1, farFired)
	}
	if e.Now() != Time(Second) || e.Pending() != 0 {
		t.Fatalf("after drain: now=%v pending=%d", e.Now(), e.Pending())
	}
}

// TestOverflowTrafficNginxLike pins the calendar's operating point on
// the stream that dominates the nginx workload. Each response (Poisson,
// 48k/s) schedules a DMA-like event 2µs out, an exec-like event ~1µs out
// and then 48 Tx segments at 1µs + i·1.2µs. Four NAPI-like poll loops
// reschedule themselves ~1µs ahead during alternate 2ms phases, so the
// horizon EWMA swings between the short poll ticks and the Tx tail, as
// it does between the load phases of the real workload. The insert
// window must cover the burst's tail through both phases, so almost
// nothing round-trips through the overflow ladder.
func TestOverflowTrafficNginxLike(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(3)
	var enq uint64
	sched := func(d Duration, fn func()) {
		enq++
		e.Schedule(d, fn)
	}
	noop := func() {}
	exec := func() {
		for i := 1; i <= 48; i++ {
			sched(Microsecond+Duration(i)*1200, noop)
		}
	}
	dma := func() { sched(Duration(800+rng.Intn(400)), exec) }
	var arrive func()
	arrive = func() {
		sched(2*Microsecond, dma)
		sched(rng.ExpDur(20833), arrive)
	}
	sched(0, arrive)
	const phase = 2 * Millisecond
	var poll func()
	poll = func() {
		if into := Duration(e.Now()) % (2 * phase); into < phase {
			sched(Duration(700+rng.Intn(600)), poll)
		} else {
			sched(2*phase-into, poll)
		}
	}
	for p := 0; p < 4; p++ {
		sched(0, poll)
	}
	e.Run(Time(200 * Millisecond))
	if enq < 500_000 {
		t.Fatalf("stream too small to measure: %d enqueues", enq)
	}
	ratio := float64(e.overPushes) / float64(enq)
	t.Logf("%d overflow pushes over %d enqueues (%.2f%%)", e.overPushes, enq, 100*ratio)
	if ratio > 0.01 {
		t.Fatalf("overflow pushes are %.1f%% of enqueues, want <= 1%%", 100*ratio)
	}
}
