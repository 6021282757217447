// Package sim provides the deterministic discrete-event simulation (DES)
// substrate that every other component of the NMAP reproduction runs on.
//
// The engine keeps a nanosecond-resolution virtual clock and a calendar
// queue of pending events (see calendar.go). Events scheduled for the
// same instant fire in the order they were scheduled (a monotonically
// increasing sequence number breaks ties), which makes every experiment
// byte-for-byte reproducible for a fixed PRNG seed.
//
// The hot path is allocation-free in steady state: event records are
// recycled through a per-engine free list when they fire or are
// cancelled, and the pending set is a calendar queue over concrete
// *event pointers (no interface boxing, no container/heap dispatch) —
// O(1) amortized enqueue, dequeue and cancel for the short-horizon tick
// pattern that dominates these simulations, with a small overflow
// ladder for far-future events. Cancellation removes the event from its
// rung eagerly in O(1), so Pending() counts live events only and
// cancelled closures are released immediately.
package sim

import (
	"errors"
	"fmt"
)

// Time is an absolute simulation timestamp in nanoseconds since the start
// of the run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the timestamp with microsecond precision, which is the
// natural scale of the experiments in the paper.
func (t Time) String() string {
	return fmt.Sprintf("%.3fms", float64(t)/1e6)
}

// Seconds converts the timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros converts the duration to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis converts the duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// String renders the duration at its natural scale.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%gs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%gms", d.Millis())
	case d >= Microsecond:
		return fmt.Sprintf("%gµs", d.Micros())
	}
	return fmt.Sprintf("%dns", int64(d))
}

// event is the pooled internal record of one scheduled callback. Records
// live in a calendar rung (or the overflow ladder) while pending and on
// the engine's free list otherwise; gen is bumped on every recycle so
// stale handles can never reach a record that has been reused for a
// different callback.
//
// The layout is cache-flat by construction: the ordering key (at, seq),
// the intrusive rung links (next, prev) and the bookkeeping words
// (gen, slot, bkt) — everything a rung scan, an unlink or a cancel
// touches — fill the record's first 64-byte line together with fn, and
// only the rarely-read afn/arg pair spills past it. Profiles of the
// heap-based predecessor showed the (at, seq) compare chain as the
// single hottest path in a figure run; keeping a scan's working set to
// one line per record is worth ~10% end to end. The links are intrusive
// on purpose: putting an event into a rung or taking it out is pure
// pointer surgery on pooled records, so the rung structure itself never
// allocates no matter how events clump.
type event struct {
	at   Time
	seq  uint64
	next *event // intrusive rung list linkage; nil while not in a rung
	prev *event
	gen  uint32 // recycle generation; handles carry the value at issue time
	slot int32  // overflow-ladder index while bkt == bktOverflow
	bkt  int32  // rung index, or bktNone / bktOverflow
	_    uint32
	fn   func()
	// afn/arg are the arg-carrying form used by ScheduleArg/AtArg: afn
	// is a long-lived callback (typically bound once at construction)
	// and arg rides in the pooled record, so hot paths schedule without
	// minting a one-shot closure per event.
	afn func(any)
	arg any
}

// Event is a handle to a scheduled callback, returned by Schedule and At.
// It is a small value (copy freely); the zero Event behaves like a handle
// to an event that has already fired. Cancellation is O(1) and takes
// effect immediately: the event leaves the queue and its closure is
// released. A handle goes stale as soon as its event fires or is
// cancelled — operations on a stale handle are safe no-ops even though
// the engine recycles the underlying record for later events.
type Event struct {
	eng *Engine
	ev  *event
	gen uint32
}

// live reports whether the handle still refers to the event it was issued
// for and that event is still queued.
func (h Event) live() bool {
	return h.ev != nil && h.ev.gen == h.gen
}

// Pending reports whether the event is still queued (it has neither fired
// nor been cancelled).
func (h Event) Pending() bool { return h.live() }

// Cancel removes the event from the queue so it will not fire. Cancelling
// an event that already fired or was already cancelled is a no-op. It
// reports whether the event was still pending.
func (h Event) Cancel() bool {
	if !h.live() {
		return false
	}
	e := h.eng
	e.dequeue(h.ev)
	e.recycle(h.ev)
	return true
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the
// goroutine that calls Run. Independent engines are fully isolated, so
// harnesses may run one engine per goroutine.
type Engine struct {
	now Time
	seq uint64
	// cur is the sequence half of the dispatch position (see Position):
	// the running event's seq inside a callback, the next unissued seq
	// after a run drained to its horizon.
	cur     uint64
	stopped bool
	// fired counts events dispatched since construction; elided holds
	// the counters of events models elided (see AddElided). Fired sums
	// them for harness-level progress accounting and benchmarks.
	fired  uint64
	elided []func() uint64

	// The calendar queue (see calendar.go): buckets is the circular
	// array of rung heads (intrusive doubly-linked lists of events),
	// indexed by virtual bucket (at >> shift) & mask; curVb is the
	// dispatch cursor, winEnd the virtual bucket where the insert window
	// ends, nshort the number of rung-resident events, and minEv caches
	// the queue minimum between operations. over is the overflow ladder
	// for events beyond the window; gap the mean dispatch gap (ns)
	// measured at the last drift check, which sets the rung width, and
	// lastCheck the clock at that check; scratch a reusable buffer for
	// rebuilds.
	buckets   []*event // the live rung heads: allRungs[:nb]
	allRungs  []*event // high-water backing so recalibration never allocates in steady state
	occ       []uint64 // rung occupancy bitmap: bit p set iff buckets[p] != nil; allOcc[:nb/64]
	allOcc    []uint64 // high-water backing for occ, grown in lockstep with allRungs
	mask      int64
	shift     uint
	curVb     int64
	winEnd    int64
	nshort    int
	minEv     *event
	over      []*event
	gap       int64
	lastCheck Time
	scratch   []*event
	// overPushes counts pushes onto the overflow ladder, rebuilds
	// included: the ladder traffic the window sizing exists to avoid.
	// rungScans counts the rung residents the minimum scans visit (the
	// cost the rung width exists to bound), rebuilds the calibrations.
	overPushes uint64
	rungScans  uint64
	rebuilds   uint64

	free []*event

	// Watchdog state: maxEvents bounds a run (0 = unlimited), and err
	// records why the engine aborted. Once err is set the engine is
	// dead: Run and RunAll return immediately.
	maxEvents uint64
	err       error
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	e := &Engine{}
	e.initCalendar()
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events fired so far: those dispatched,
// plus those models elided (see AddElided) that the dispatch position
// has passed. A model accounts for an elided event exactly as if it had
// fired, so Fired does not depend on which events it dispatches.
func (e *Engine) Fired() uint64 {
	n := e.fired
	for _, src := range e.elided {
		n += src()
	}
	return n
}

// Dispatched returns the number of events the engine itself has run:
// Fired less the elided ones. The watchdog's MaxEvents bound counts
// these.
func (e *Engine) Dispatched() uint64 { return e.fired }

// AddElided registers src, a model's count of the events it elided:
// events whose reserved sequence numbers (see Reserve) it never
// scheduled, counted once the dispatch position has passed them. Fired
// adds src's count to the events dispatched.
func (e *Engine) AddElided(src func() uint64) { e.elided = append(e.elided, src) }

// Pending returns the number of live events still queued. Cancelled
// events are removed eagerly and never counted.
func (e *Engine) Pending() int { return e.nshort + len(e.over) }

// alloc takes an event record off the free list, or mints one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{bkt: bktNone, slot: -1}
}

// recycle returns a record to the free list. Bumping gen invalidates
// every handle issued for the record's previous life; dropping fn
// releases the callback's captures promptly.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.bkt = bktNone
	ev.slot = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// less orders the queue by (at, seq): earliest deadline first, FIFO
// within an instant.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (fires at the current instant, after already-queued events for that
// instant). It returns a cancellable handle.
func (e *Engine) Schedule(delay Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+Time(delay), fn)
}

// At queues fn to run at the absolute instant t. Scheduling in the past is
// clamped to the current instant.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.enqueue(ev)
	return Event{eng: e, ev: ev, gen: ev.gen}
}

// ScheduleArg queues fn(arg) to run after delay. Unlike Schedule it does
// not require a fresh closure per event: fn is typically a callback
// bound once at component construction, and arg (usually a pooled
// pointer) travels in the recycled event record, keeping steady-state
// scheduling allocation-free even when the callback needs per-event
// state.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) Event {
	if delay < 0 {
		delay = 0
	}
	return e.AtArg(e.now+Time(delay), fn, arg)
}

// AtArg queues fn(arg) to run at the absolute instant t. Scheduling in
// the past is clamped to the current instant.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.afn = fn
	ev.arg = arg
	e.seq++
	e.enqueue(ev)
	return Event{eng: e, ev: ev, gen: ev.gen}
}

// Reserve takes a block of n consecutive sequence numbers and returns
// the first. Nothing is scheduled: the block holds the tie-break order
// of events the caller may schedule later with AtSeqArg, exactly as n
// ScheduleArg calls made now would have consumed it, so every event
// scheduled after the reservation keeps its sequence number whether or
// not a reserved slot is ever used.
func (e *Engine) Reserve(n int) uint64 {
	base := e.seq
	e.seq += uint64(n)
	return base
}

// AtSeqArg queues fn(arg) at the explicit position (t, seq), where seq
// comes from an earlier Reserve. The event fires where one scheduled at
// reservation time would have. The position must not lie behind the
// dispatch position; a slot may be scheduled, cancelled and scheduled
// again, but must not be live twice at once.
func (e *Engine) AtSeqArg(t Time, seq uint64, fn func(any), arg any) Event {
	if seq >= e.seq || t < e.now || (t == e.now && seq < e.cur) {
		panic("sim: AtSeqArg outside the reserved future")
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = seq
	ev.afn = fn
	ev.arg = arg
	e.enqueue(ev)
	return Event{eng: e, ev: ev, gen: ev.gen}
}

// Position reports the dispatch position (t, seq): every event ordered
// strictly before it by (at, seq) has been dispatched, and none at or
// after it except the running one. Inside a callback it is (Now, the
// running event's seq). After a Run that reached its horizon, or a
// RunAll that drained, it is (Now, the next seq to be issued): every
// event issued so far up to and including the horizon has fired, and
// anything scheduled later is still ahead. A caller can thus tell
// whether an event it decided never to schedule would have fired by
// now.
func (e *Engine) Position() (Time, uint64) { return e.now, e.cur }

// SetWatchdog arms the engine watchdog: the run aborts with a diagnostic
// error once maxEvents events have been dispatched in total (zero
// disables it). The watchdog exists so a runaway model (an event chain
// that reschedules itself forever) terminates with an explanation
// instead of hanging the harness; see docs/MODEL.md.
func (e *Engine) SetWatchdog(maxEvents uint64) { e.maxEvents = maxEvents }

// Abort ends the current Run after the executing event completes. With a
// non-nil err it stops the engine permanently: every later Run or RunAll
// call is a no-op, and Err reports the reason. With a nil err the next
// Run proceeds.
func (e *Engine) Abort(err error) {
	e.stopped = true
	if err != nil && e.err == nil {
		e.err = err
	}
}

// Err returns the reason the engine was aborted (by the watchdog or
// Abort), or nil for a healthy engine.
func (e *Engine) Err() error { return e.err }

// Watchdog returns the armed watchdog's event bound (zero = disabled).
func (e *Engine) Watchdog() uint64 { return e.maxEvents }

// ErrWatchdog tags watchdog aborts; errors.Is(eng.Err(), sim.ErrWatchdog)
// distinguishes a runaway run from an external Abort.
var ErrWatchdog = errors.New("sim: watchdog tripped")

// watchdogTripped checks the armed event bound and aborts the engine
// with a diagnostic when it is reached.
func (e *Engine) watchdogTripped() bool {
	if e.fired < e.maxEvents {
		return false
	}
	e.Abort(fmt.Errorf("%w: %d events dispatched without the run completing (now=%v, %d events still pending)",
		ErrWatchdog, e.fired, e.now, e.Pending()))
	return true
}

// fire pops the minimum event (the caller's run loop guarantees minEv
// is resolved), advances the clock, recycles the record (so the
// callback may immediately reuse it via Schedule) and runs the
// callback. Popping resolves the same-instant successor with one local
// rung scan — events at the same timestamp always share a virtual rung,
// so a batch of simultaneous events drains through this scan alone, no
// cursor walk, window motion or overflow traffic between the callbacks;
// the periodic drift check keeps the rung width matched to the measured
// dispatch gap.
func (e *Engine) fire() {
	next := e.minEv
	vb := int64(next.at) >> e.shift
	e.bucketRemove(next)
	e.curVb = vb
	// Resolve the successor: global minimum, since every earlier rung is
	// already dry.
	if x := e.buckets[int32(vb&e.mask)]; x != nil {
		e.minEv = e.rungMin(x)
	} else {
		e.minEv = nil
	}
	e.now = next.at
	e.cur = next.seq
	e.fired++
	if e.fired&recalPeriod == 0 {
		e.maybeRecalibrate()
	}
	fn := next.fn
	afn, arg := next.afn, next.arg
	e.recycle(next)
	if afn != nil {
		afn(arg)
		return
	}
	fn()
}

// Run dispatches events in timestamp order until the queue is empty, the
// horizon is reached, Abort is called, or the watchdog trips. The clock is
// left at the horizon (or at the last event if the queue drained first).
// Events scheduled exactly at the horizon do fire. Once the engine has
// been aborted (watchdog or Abort), Run returns immediately; Err reports
// why.
func (e *Engine) Run(until Time) {
	if e.err != nil {
		return
	}
	e.stopped = false
	for !e.stopped {
		// Inline fast path on the cached minimum; peekMin repeats this
		// check before doing any real work, so the semantics are its.
		next := e.minEv
		if next == nil {
			if next = e.peekMin(); next == nil {
				break
			}
		}
		if next.at > until {
			break
		}
		if e.maxEvents != 0 && e.watchdogTripped() {
			return
		}
		e.fire()
	}
	if !e.stopped {
		if e.now < until {
			e.now = until
		}
		e.cur = e.seq
	}
}

// RunAll dispatches events until the queue drains, Abort is called, or
// the watchdog trips.
func (e *Engine) RunAll() {
	if e.err != nil {
		return
	}
	e.stopped = false
	for !e.stopped {
		next := e.minEv
		if next == nil {
			if next = e.peekMin(); next == nil {
				break
			}
		}
		if e.maxEvents != 0 && e.watchdogTripped() {
			return
		}
		e.fire()
	}
	if !e.stopped {
		e.cur = e.seq
	}
}

// Ticker invokes fn every period for the rest of the run. The first
// invocation happens one full period from now.
func (e *Engine) Ticker(period Duration, fn func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var tick func()
	tick = func() {
		fn()
		e.Schedule(period, tick)
	}
	e.Schedule(period, tick)
}
