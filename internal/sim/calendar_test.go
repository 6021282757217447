package sim

import "testing"

// TestCalibrateAnchorsAtEarliestPending pins the window anchor of a
// rebuild: a drift recalibration that runs while every pending event lies
// beyond the new window must still leave the cached minimum in a rung.
// Here a 10ns self-rescheduling chain runs to the 4096th fire, where the
// periodic drift check measures a 10ns dispatch gap and rebuilds at 16ns
// rungs; the chain stops at that fire, so the only event left is one ~1s
// out. A
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
// dispatch gap swings between the short poll ticks and the Tx stream, as
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

// startRTOStream starts the schedule/cancel pattern of a client RTO on
// e. Requests arrive as a Poisson stream at 1M/s; each arms a 20ms
// retransmit timer, which its response cancels 5–50µs later, and
// schedules ten short events 1–10µs out (the NIC, softirq and exec work
// of serving it). Every timer is cancelled long before it could fire,
// so the events the engine dispatches are microseconds apart while a
// twelfth of what it is asked to schedule lies 20ms out. Callbacks are
// bound once and requests pooled, so the stream does not allocate in
// steady state.
func startRTOStream(e *Engine, seed uint64) {
	type request struct{ timer Event }
	rng := NewRNG(seed)
	var free []*request
	noop := func(any) {}
	respond := func(a any) {
		r := a.(*request)
		r.timer.Cancel()
		free = append(free, r)
	}
	var arrive func(any)
	arrive = func(any) {
		var r *request
		if n := len(free); n > 0 {
			r = free[n-1]
			free = free[:n-1]
		} else {
			r = &request{}
		}
		r.timer = e.ScheduleArg(20*Millisecond, noop, r)
		e.ScheduleArg(5*Microsecond+Duration(rng.Intn(45_000)), respond, r)
		for i := 0; i < 10; i++ {
			e.ScheduleArg(Microsecond+Duration(rng.Intn(9_000)), noop, nil)
		}
		e.ScheduleArg(rng.ExpDur(Microsecond), arrive, nil)
	}
	e.ScheduleArg(0, arrive, nil)
}

// TestRungScanWithCancelledTimers pins the rung width to the gap between
// dispatched events on the RTO stream. Sizing the width from scheduling
// horizons counted every cancelled 20ms timer and made the rungs far
// wider than the ~80ns between dispatches: with the enqueue-horizon
// EWMA each dispatch scanned 57.8 rung residents to find its successor.
func TestRungScanWithCancelledTimers(t *testing.T) {
	e := NewEngine()
	startRTOStream(e, 1)
	e.Run(Time(40 * Millisecond))
	fired := e.Dispatched()
	if fired < 400_000 {
		t.Fatalf("stream too small to measure: %d dispatches", fired)
	}
	scan := float64(e.rungScans) / float64(fired)
	t.Logf("%.2f rung residents scanned per dispatch over %d dispatches, %d rebuilds", scan, fired, e.rebuilds)
	if scan > 3 {
		t.Fatalf("each dispatch scans %.1f rung residents, want <= 3", scan)
	}
}

// TestNoRebuildPerCancel pins the rebuild band to the population the
// rung-count target counts. 15k timers are parked 1s out, beyond any
// window, and a µs-scale stream runs beside them: a tick every ~1µs
// arms a short timer, and every 64th tick cancels the one it armed.
// When the band counted only rung residents, the rebuild sized for 15k
// events left the band reading "too sparse" at once, so each of those
// cancels rebuilt the calendar and pushed all 15k timers back through
// the overflow ladder: 101 rebuilds and 1.52M overflow pushes over 400k
// dispatches.
func TestNoRebuildPerCancel(t *testing.T) {
	e := NewEngine()
	noop := func(any) {}
	for i := 0; i < 15_000; i++ {
		e.ScheduleArg(Second+Duration(i), noop, nil)
	}
	rng := NewRNG(5)
	const fires = 400_000
	n := 0
	var tick func(any)
	tick = func(any) {
		if e.Dispatched() >= fires {
			e.Abort(nil)
			return
		}
		e.ScheduleArg(rng.ExpDur(Microsecond), tick, nil)
		armed := e.ScheduleArg(Duration(500+rng.Intn(2000)), noop, nil)
		if n++; n%64 == 0 {
			armed.Cancel()
		}
	}
	e.ScheduleArg(0, tick, nil)
	e.Run(Time(Second / 2))
	if e.Dispatched() < fires {
		t.Fatalf("stream stopped early: %d dispatches", e.Dispatched())
	}
	pushes := float64(e.overPushes) / float64(e.Dispatched())
	t.Logf("%d rebuilds, %d overflow pushes (%.3f per dispatch)", e.rebuilds, e.overPushes, pushes)
	if e.rebuilds > 20 || pushes > 0.5 {
		t.Fatalf("%d rebuilds and %.2f overflow pushes per dispatch, want <= 20 and <= 0.5", e.rebuilds, pushes)
	}
}

// TestPullbackStaysWithinALap pins the one-lap window. A Run that stops
// short of a far event leaves the cursor parked at that event, and a
// schedule behind it pulls the cursor back. Pulled back from 80s to
// 1ms, the window spanned ~39M virtual buckets over 256 rungs, every
// rung could hold residents of other laps, and reaching the far event
// walked the cursor one lap per step. Such a pull-back now rebuilds,
// anchored at the new event.
func TestPullbackStaysWithinALap(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(a any) { got = append(got, a.(int)) }
	e.AtArg(Time(80*Second), rec, 2)
	e.Run(Time(Millisecond))
	e.AtArg(Time(Millisecond)+10, rec, 1)
	if span, nb := e.winEnd-e.curVb, int64(len(e.buckets)); span > nb {
		t.Fatalf("window spans %d virtual buckets over %d rungs", span, nb)
	}
	e.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || e.Now() != Time(80*Second) {
		t.Fatalf("fired %v, now=%v", got, e.Now())
	}
}

// TestRTOStreamAllocFree pins the RTO stream's steady state (see
// BenchmarkEngineRTOStream) at zero allocations: arming, cancelling and
// rebuilding all run on pooled records and high-water buffers.
func TestRTOStreamAllocFree(t *testing.T) {
	e := NewEngine()
	startRTOStream(e, 1)
	e.Run(Time(5 * Millisecond))
	if a := testing.AllocsPerRun(20, func() { e.Run(e.Now() + Time(Millisecond)) }); a != 0 {
		t.Fatalf("%.1f allocations per simulated millisecond, want 0", a)
	}
}

// BenchmarkEngineRTOStream drives the RTO stream of
// TestRungScanWithCancelledTimers. One op is one simulated microsecond:
// about one request, so twelve dispatches and one 20ms timer armed and
// cancelled.
func BenchmarkEngineRTOStream(b *testing.B) {
	e := NewEngine()
	startRTOStream(e, 1)
	e.Run(Time(5 * Millisecond)) // fill the pools and settle the geometry
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now() + Time(b.N)*Time(Microsecond))
}
