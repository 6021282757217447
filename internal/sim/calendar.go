package sim

// This file implements the engine's pending-event structure: a calendar
// queue (time-bucketed rungs over a circular array) with an overflow
// ladder for far-future events. It replaced the PR-1 hand-inlined binary
// heap once profiles showed the heap's sift chains (pointer-chasing
// (at, seq) compares over O(log n) levels on every schedule, fire and
// cancel) eating ~45% of a figure run's CPU. The calendar makes the
// short-horizon steady state — ITR ticks, poll passes, exec completions,
// all scheduled microseconds ahead — O(1) amortized per operation:
//
//   - enqueue: one shift to find the rung, one list push — O(1) and
//     allocation-free (the rungs are intrusive doubly-linked lists over
//     the pooled records, so arrival clumps can never force a slice to
//     grow). Far-future events (watchdogs, hard-fault schedules,
//     pre-sampled arrivals past the window) go to the overflow ladder, a
//     small slot-tracked binary heap, and migrate into rungs as the
//     window advances.
//   - dequeue-min: a cursor walks the rungs; each rung holds ~1 event at
//     the calibrated width, so finding the minimum is a short local scan.
//     The cursor never re-visits drained rungs, making the walk O(1)
//     amortized.
//   - cancel: swap-with-last inside the event's rung — O(1), eager, and
//     handle-exact (the generation check in Event is unchanged).
//
// Firing order is exactly the heap's: the strict (at, seq) minimum fires
// every step, so a seeded run is byte-for-byte identical under either
// structure (pinned by the equivalence property test and the repo's
// determinism gates).
//
// Same-instant batching: after a pop, the next event of the same virtual
// rung — in particular the rest of a same-timestamp batch, which always
// shares the rung — is located by one local scan and cached, so draining
// a burst of simultaneous events never touches the cursor, the window or
// the overflow ladder.
//
// Calibration: the queue sizes itself to what it dispatches, not to
// what models schedule. The rung width tracks the mean gap between
// dispatched events, measured at the periodic drift check as the clock's
// advance over the last 4096 fires (the largest power of two not above
// it); the rung count tracks rungsPerEvent
// times the pending count, overflow ladder included, so the insert
// window spans ~rungsPerEvent mean residence times. Sizing from
// dispatches makes the width immune to events that are scheduled and
// then cancelled: a client RTO arms a 20ms timer per request and
// cancels it microseconds later, and the enqueue-horizon EWMA this
// replaced read those timers as a 64x wider mean gap, so every pop
// scanned ~40 rung residents. The window must cover the horizon
// distribution's tail, not its mean: a response's 48 Tx segments land
// 2–58µs out, and a window of two mean horizons pushed 20–29% of all
// fired events through the overflow ladder and back. Most rungs are
// empty at this operating point, which costs one bit each in the
// occupancy scan. The rebuild band (4x either side of the target)
// counts the same population the target does — every pending event:
// when it counted only rung residents, a queue whose events sat mostly
// in the ladder read "too sparse" right after every rebuild, and each
// cancel rebuilt and re-pushed the whole ladder. A rebuild anchors the
// window at the earliest pending event, so the cached minimum is always
// rung-resident. Recalibration triggers on the band and on width drift,
// rebuilds in O(n), and is driven purely by queue state and the virtual
// clock — never by wall clock — so it is deterministic and replay-safe.
//
// Occupancy bitmap: one uint64 word summarizes 64 rungs (bit set ⇔ rung
// list non-empty), maintained by the O(1) rung link/unlink paths. The
// cursor walk in peekMin jumps straight to the next occupied rung with
// bits.TrailingZeros64 instead of probing rung heads one by one, and the
// calibration rebuild collects residents by iterating set bits, so both
// scans skip empty rungs in O(1) per word instead of O(1) per rung. The
// invariants: (1) occ bit p is set iff buckets[p] != nil, restored
// before every return from the mutating paths; (2) the window never
// spans more than one lap of the circular array (winEnd-curVb <= nb)
// and no rung resident lies behind the cursor, so physical rung p holds
// exactly one virtual bucket and the first set bit at or after the
// cursor names the rung of the minimum. A schedule behind the cursor
// pulls the cursor back; one that would stretch the window past a lap
// rebuilds instead. A stretched window used to cost a lap walk: with
// the cursor pulled far behind a window anchored at a distant event,
// each step found only later-lap residents, and reaching the far event
// took one step per lap — 50s of CPU on one scheduler fuzz input.

import "math/bits"

const (
	// Rung-count bounds. minBuckets keeps the window wide enough that
	// tiny queues never thrash the overflow ladder; maxBuckets caps the
	// footprint (32768 head pointers = 256KB) for degenerate backlogs.
	minBuckets = 1 << 8
	maxBuckets = 1 << 15
	// Rung-width bounds, as log2 nanoseconds: 16ns to ~4.2ms.
	minShift = 4
	maxShift = 22
	// recalPeriod masks the fired counter for the periodic drift check;
	// the check also measures the dispatch gap over the recalPeriod+1
	// fires since the last one (recalLog is its log2).
	recalLog    = 12
	recalPeriod = 1<<recalLog - 1
	// rungsPerEvent is the calibrated rung count per pending event (see
	// Calibration above). 8 and 16 tie on wall time; 16 leaves 0.05% of
	// high-load memcached's events in the overflow ladder, 8 leaves
	// 1.5%.
	rungsPerEvent = 16
	// rebuildBand is the rung-count hysteresis: a rebuild runs once the
	// pending count drifts this factor either side of nb/rungsPerEvent.
	rebuildBand = 4
)

// Sentinel values for event.bkt.
const (
	bktNone     = -1 // not queued
	bktOverflow = -2 // in the overflow ladder; slot is the heap index
)

// initCalendar sets the queue to its startup geometry: 256 rungs of
// 2.048µs (a 524µs window), which fits the NIC/softirq tick pattern
// before the first drift check has measured the dispatch gap. Until
// then the gap reads 0, so a rebuild forced by a burst errs narrow.
func (e *Engine) initCalendar() {
	e.allRungs = make([]*event, minBuckets)
	e.allOcc = make([]uint64, minBuckets/64)
	e.buckets = e.allRungs
	e.occ = e.allOcc
	e.mask = minBuckets - 1
	e.shift = 11
	e.curVb = 0
	e.winEnd = minBuckets
}

// enqueue places a filled event record into the calendar (or the
// overflow ladder) and maintains the cached minimum. O(1) outside
// calibration.
func (e *Engine) enqueue(ev *event) {
	if e.buckets == nil {
		e.initCalendar()
	}
	vb := int64(ev.at) >> e.shift
	if vb >= e.winEnd {
		// Overflow pushes never touch minEv: the cached minimum is
		// always rung-resident, and an overflow event (vb >= winEnd)
		// can never precede one.
		e.overPush(ev)
	} else {
		pulled := vb < e.curVb
		if pulled {
			// Scheduling behind the cursor (between Run calls, after the
			// cursor walked ahead to a far next event, or after a rebuild
			// anchored at one): pull the cursor back. If that stretches
			// the window past one lap, the rebuild below re-anchors it.
			e.curVb = vb
		}
		e.bucketPut(ev, vb)
		if m := e.minEv; m != nil {
			if less(ev, m) {
				e.minEv = ev
			}
		} else if e.nshort == 1 && len(e.over) == 0 {
			// ev is the only pending event, hence the minimum by
			// definition. minEv==nil otherwise means "invalidated", so
			// this is the one place the cache can be seeded without a
			// scan.
			e.minEv = ev
		}
		if e.tooFull() || pulled && e.winEnd-vb > int64(len(e.buckets)) {
			e.calibrate()
		}
	}
}

// bucketPut pushes ev onto the rung list for virtual bucket vb. Pure
// pointer writes on pooled records — never allocates. An empty rung
// turning occupied sets its occupancy bit.
func (e *Engine) bucketPut(ev *event, vb int64) {
	p := int32(vb & e.mask)
	ev.bkt = p
	ev.prev = nil
	ev.next = e.buckets[p]
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		e.occ[p>>6] |= 1 << uint(p&63)
	}
	e.buckets[p] = ev
	e.nshort++
}

// bucketRemove unlinks ev from its rung list in O(1), clearing the
// rung's occupancy bit when the last resident leaves.
func (e *Engine) bucketRemove(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		e.buckets[ev.bkt] = ev.next
		if ev.next == nil {
			p := ev.bkt
			e.occ[p>>6] &^= 1 << uint(p&63)
		}
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next = nil
	ev.prev = nil
	e.nshort--
	ev.bkt = bktNone
}

// dequeue removes a pending event wherever it lives (cancel path).
func (e *Engine) dequeue(ev *event) {
	if ev == e.minEv {
		e.minEv = nil
	}
	if ev.bkt == bktOverflow {
		e.overRemove(int(ev.slot))
		return
	}
	e.bucketRemove(ev)
	if e.tooSparse() {
		e.calibrate()
	}
}

// peekMin returns the strict (at, seq) minimum without removing it, or
// nil when the queue is empty. The result is cached; the common case
// after a pop is a single pointer load.
func (e *Engine) peekMin() *event {
	if e.minEv != nil {
		return e.minEv
	}
	if e.nshort == 0 {
		if len(e.over) == 0 {
			return nil
		}
		// Rungs are dry: jump the cursor to the earliest far event and
		// re-open the window there, migrating everything now in range.
		e.curVb = int64(e.over[0].at) >> e.shift
		e.advanceWindow()
	}
	for {
		if e.minEv != nil { // a calibration inside advanceWindow found it
			return e.minEv
		}
		if e.winEnd-e.curVb < int64(len(e.buckets))/2 {
			// Hysteresis: let the window shrink to half the rung count
			// before sliding it, so the slide (and its overflow check)
			// runs once per nb/2 cursor steps instead of every step.
			e.advanceWindow()
			continue
		}
		// Jump the cursor to the next occupied rung via the occupancy
		// bitmap. Rung-resident events all have curVb <= vb < winEnd and
		// the window spans at most one lap, so the jump target is
		// exactly the next virtual bucket holding events.
		d := e.occNext(e.curVb & e.mask)
		if d < 0 {
			// No rung is occupied: everything pending lives in the
			// overflow ladder. Re-open the window at its earliest event.
			e.curVb = int64(e.over[0].at) >> e.shift
			e.advanceWindow()
			continue
		}
		e.curVb += d
		e.minEv = e.rungMin(e.buckets[int32(e.curVb&e.mask)])
		return e.minEv
	}
}

// occNext returns the circular distance (in rungs) from physical rung p
// to the nearest occupied rung at or after it, or -1 when every rung is
// empty. One shifted word test resolves the common case; otherwise the
// scan touches one word per 64 rungs.
func (e *Engine) occNext(p int64) int64 {
	w := p >> 6
	off := uint(p & 63)
	if x := e.occ[w] >> off; x != 0 {
		return int64(bits.TrailingZeros64(x))
	}
	nw := int64(len(e.occ))
	for i := int64(1); i <= nw; i++ {
		wi := w + i
		if wi >= nw {
			wi -= nw
		}
		if x := e.occ[wi]; x != 0 {
			return i<<6 - int64(off) + int64(bits.TrailingZeros64(x))
		}
	}
	return -1
}

// rungMin returns the (at, seq) minimum among the events in rung list x
// (nil for an empty rung). The window spans at most one lap, so every
// resident of a rung belongs to the same virtual bucket and the scan is
// a plain list minimum.
func (e *Engine) rungMin(x *event) *event {
	var best *event
	var n uint64
	for ; x != nil; x = x.next {
		n++
		if best == nil || less(x, best) {
			best = x
		}
	}
	e.rungScans += n
	return best
}

// advanceWindow slides the insert window forward to the cursor and
// migrates overflow events that fell into range. Each event migrates at
// most once per calibration epoch, so the cost is amortized O(1).
func (e *Engine) advanceWindow() {
	e.winEnd = e.curVb + int64(len(e.buckets))
	for len(e.over) > 0 && int64(e.over[0].at)>>e.shift < e.winEnd {
		ev := e.overRemove(0)
		e.bucketPut(ev, int64(ev.at)>>e.shift)
	}
	if e.tooFull() {
		e.calibrate()
	}
}

// maybeRecalibrate is the periodic drift check (every 4096 fires). It
// measures the mean dispatch gap over those fires — the clock's advance
// divided by their count, so events cancelled before they fire never
// enter it — and rebuilds when the rung width is ≥4x off that gap or
// the pending count has left the rebuild band. Pure queue state and
// virtual clock, no wall clock — deterministic.
func (e *Engine) maybeRecalibrate() {
	e.gap = int64(e.now-e.lastCheck) >> recalLog
	e.lastCheck = e.now
	d := int(e.idealShift()) - int(e.shift)
	if d < 0 {
		d = -d
	}
	if d >= 2 || e.tooSparse() || e.tooFull() {
		e.calibrate()
	}
}

// tooFull reports whether the pending count has grown past the rebuild
// band (and the rung count can still grow). It counts the overflow
// ladder too, as calibrate's rung-count target does.
func (e *Engine) tooFull() bool {
	nb := len(e.buckets)
	return nb < maxBuckets && rungsPerEvent*e.Pending() > rebuildBand*nb
}

// tooSparse reports whether the pending count has fallen below the
// rebuild band (and the rung count can still shrink).
func (e *Engine) tooSparse() bool {
	nb := len(e.buckets)
	return nb > minBuckets && rebuildBand*rungsPerEvent*e.Pending() < nb
}

// idealShift picks the rung width (log2 ns): the largest power of two
// not above the measured dispatch gap, the classic calendar-queue
// operating point of ~1 event per occupied rung, erring narrow. The
// balance is asymmetric — visiting an empty rung is one bit in the
// occupancy scan, while every event resident in a scanned rung costs a
// pointer chase plus an (at, seq) compare. Against the next power of
// two up, same-host A/B on a 2-vCPU x86-64 host: mc-high-nmap 0.83 →
// 0.93 sim-s/s (9/10 pairs), the other workloads level or better.
func (e *Engine) idealShift() uint {
	s := uint(minShift)
	for s < maxShift && int64(2)<<s <= e.gap {
		s++
	}
	return s
}

// calibrate rebuilds the calendar to the current event population:
// rung count tracking rungsPerEvent times the pending count, width from
// the measured dispatch gap, the window anchored at the earliest pending
// event.
// O(n); event records are relinked in place and the rung-head array
// only grows past its high-water mark, so steady-state rebuilds never
// allocate.
func (e *Engine) calibrate() {
	e.rebuilds++
	all := e.scratch[:0]
	// The occupancy bitmap names exactly the non-empty rungs, so the
	// collection pass touches one word per 64 rungs plus one probe per
	// resident list instead of every rung head.
	for w, bitsW := range e.occ {
		for bitsW != 0 {
			b := bits.TrailingZeros64(bitsW)
			bitsW &= bitsW - 1
			i := w<<6 + b
			for x := e.buckets[i]; x != nil; {
				next := x.next
				x.next = nil
				x.prev = nil
				all = append(all, x)
				x = next
			}
			e.buckets[i] = nil
		}
		e.occ[w] = 0
	}
	all = append(all, e.over...)
	for j := range e.over {
		e.over[j] = nil
	}
	e.over = e.over[:0]

	nb := minBuckets
	for nb < maxBuckets && nb < rungsPerEvent*len(all) {
		nb <<= 1
	}
	if nb > len(e.allRungs) {
		e.allRungs = make([]*event, nb)
		e.allOcc = make([]uint64, nb/64)
	}
	e.buckets = e.allRungs[:nb] // shrink is a reslice of the high-water backing
	e.occ = e.allOcc[:nb/64]
	e.mask = int64(nb - 1)
	e.shift = e.idealShift()

	// Anchor at the earliest pending event, not at the clock: a window
	// anchored at now can leave every pending event beyond winEnd, and
	// the cached minimum must be rung-resident for fire to unlink it.
	lo := e.now
	if len(all) > 0 {
		lo = all[0].at
		for _, ev := range all[1:] {
			if ev.at < lo {
				lo = ev.at
			}
		}
	}
	e.curVb = int64(lo) >> e.shift
	e.winEnd = e.curVb + int64(nb)
	e.nshort = 0
	e.minEv = nil
	for _, ev := range all {
		vb := int64(ev.at) >> e.shift
		if vb >= e.winEnd {
			e.overPush(ev)
		} else {
			e.bucketPut(ev, vb)
		}
		if e.minEv == nil || less(ev, e.minEv) {
			e.minEv = ev
		}
	}
	for j := range all {
		all[j] = nil
	}
	e.scratch = all[:0]
}

// The overflow ladder: a slot-tracked binary min-heap by (at, seq). It
// holds only events beyond the calendar window — watchdog deadlines,
// scheduled hard faults, pre-sampled arrivals past the horizon — so it
// stays small and its O(log n) is paid rarely.

func (e *Engine) overPush(ev *event) {
	e.overPushes++
	ev.bkt = bktOverflow
	ev.slot = int32(len(e.over))
	e.over = append(e.over, ev)
	e.overUp(int(ev.slot))
}

func (e *Engine) overUp(i int) {
	h := e.over
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].slot = int32(i)
		i = parent
	}
	h[i] = ev
	ev.slot = int32(i)
}

// overDown restores the heap property below i and reports whether the
// element moved.
func (e *Engine) overDown(i int) bool {
	h := e.over
	n := len(h)
	ev := h[i]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			m = r
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].slot = int32(i)
		i = m
	}
	h[i] = ev
	ev.slot = int32(i)
	return i != start
}

// overRemove unlinks the event at ladder index i in O(log n).
func (e *Engine) overRemove(i int) *event {
	h := e.over
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].slot = int32(i)
	}
	h[n] = nil
	e.over = h[:n]
	if i < n {
		if !e.overDown(i) {
			e.overUp(i)
		}
	}
	ev.slot = -1
	ev.bkt = bktNone
	return ev
}
