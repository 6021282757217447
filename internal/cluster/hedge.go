package cluster

import (
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Tail-latency request hedging: when a request's first copy has not
// come back after a delay tracking a high quantile of the observed
// per-attempt latency, the router dispatches one duplicate to a
// different node. First response wins and settles the front-end ledger;
// the loser is not recalled — its node does the work and the duplicate
// completion (or failure) is absorbed and honestly accounted as a hedge
// duplicate, packets and energy included. This is what rescues requests
// swallowed by a gray link: the front end is never told about the loss,
// but the hedge timer fires regardless of why the first copy is late.

// HedgeConfig arms tail-latency hedged requests in the router. The zero
// value keeps the single-copy router (byte-identical to a build without
// hedging).
type HedgeConfig struct {
	// Enabled turns hedging on: the hedge delay tracks the P95 of the
	// observed per-attempt latency, clamped to [SLO/2, 4×SLO].
	Enabled bool
}

// hedgeQuantile is the quantile of the per-attempt latency the hedge
// delay tracks.
const hedgeQuantile = 0.95

// quantileTracker is a deterministic O(1) streaming quantile estimator
// (stochastic approximation with a multiplicative step): each sample
// moves the estimate up by step×q or down by step×(1−q), so it
// converges toward the q-quantile of the per-attempt latency stream
// without storing samples and without drawing randomness.
type quantileTracker struct {
	q   float64
	est sim.Duration
}

func (t *quantileTracker) observe(s sim.Duration) {
	step := t.est >> 5
	if step < 100 {
		step = 100 // 100ns floor keeps convergence moving at µs scale
	}
	if s > t.est {
		t.est += sim.Duration(float64(step) * t.q)
	} else {
		t.est -= sim.Duration(float64(step) * (1 - t.q))
		if t.est < 0 {
			t.est = 0
		}
	}
}

// hedgeState tracks one live request while hedging is armed: how many
// copies the front end believes in flight, where the primary went, and
// the armed hedge timer. States are pooled and keyed by request ID; a
// state whose copies were swallowed by a cut link is retained (the
// front end honestly does not know), bounded by the orphan population.
type hedgeState struct {
	id     uint64
	flow   uint64
	sent   sim.Time
	app    float64
	copies int
	// primary is the node holding the most recent non-hedge copy — the
	// node a hedge avoids.
	primary int
	done    bool
	hedged  bool
	timer   sim.Event
}

type hedger struct {
	rt *router
	// min / max clamp the tracked delay.
	min, max sim.Duration
	track    quantileTracker
	live     map[uint64]*hedgeState
	free     []*hedgeState
	fireFn   func(any)
}

func newHedger(rt *router, lo, hi sim.Duration) *hedger {
	h := &hedger{rt: rt, min: lo, max: hi, live: make(map[uint64]*hedgeState)}
	h.track.q = hedgeQuantile
	// Start conservative: no hedge fires before real samples pull the
	// estimate down from the ceiling.
	h.track.est = hi
	h.fireFn = h.fire
	return h
}

// delay is the current hedge delay: the tracked quantile, clamped.
func (h *hedger) delay() sim.Duration {
	return min(max(h.track.est, h.min), h.max)
}

// observe feeds one per-attempt latency sample (landing − Dispatched)
// into the tracker. Called on every front-side landing, winners and
// losers alike — the loser's attempt latency is exactly the signal the
// hedge delay must track.
func (h *hedger) observe(now sim.Time, r *workload.Request) {
	h.track.observe(sim.Duration(now - r.Dispatched))
}

// onIssue books a fresh request and arms its hedge timer.
func (h *hedger) onIssue(r *workload.Request, node int) {
	st := h.get()
	st.id, st.flow, st.sent, st.app = r.ID, r.Flow, r.Sent, r.AppCycles
	st.copies, st.primary = 1, node
	st.done, st.hedged = false, false
	h.live[r.ID] = st
	st.timer = h.rt.c.Eng.ScheduleArg(h.delay(), h.fireFn, st)
}

// fire is the hedge timer: if the request is still unsettled and never
// hedged, dispatch one duplicate to a node other than the primary.
func (h *hedger) fire(a any) {
	st := a.(*hedgeState)
	st.timer = sim.Event{}
	if st.done || st.hedged {
		return
	}
	node := h.rt.pick(st.flow, st.primary)
	if node < 0 {
		return
	}
	st.hedged = true
	st.copies++
	h.rt.acct.Hedges++
	nr := h.rt.c.Nodes[0].Srv.Pool().Get()
	nr.ID, nr.Flow, nr.Sent, nr.AppCycles = st.id, st.flow, st.sent, st.app
	h.rt.dispatch(node, nr)
}

// onCopyDone books one copy's front-side completion and reports whether
// it wins (settles the request). A completion after the request already
// settled is a hedge duplicate: absorbed and counted, never
// double-settled.
func (h *hedger) onCopyDone(id uint64) bool {
	st := h.live[id]
	if st == nil {
		return true
	}
	st.copies--
	if st.done {
		h.rt.acct.HedgeDupDone++
		h.release(st)
		return false
	}
	st.done = true
	st.timer.Cancel()
	h.release(st)
	return true
}

// onCopyFail books one copy's node-side terminal failure and reports
// whether it is absorbed: the request already settled, or another copy
// is still believed in flight. The last live copy's failure is not
// absorbed — the resteer-or-fail path owns it.
func (h *hedger) onCopyFail(id uint64) bool {
	st := h.live[id]
	if st == nil {
		return false
	}
	st.copies--
	if st.done {
		h.rt.acct.HedgeDupFail++
		h.release(st)
		return true
	}
	if st.copies > 0 {
		h.rt.acct.HedgeDupFail++
		return true
	}
	return false
}

// onResteer books a resteered copy: believed in flight again, at a new
// primary.
func (h *hedger) onResteer(id uint64, node int) {
	if st := h.live[id]; st != nil {
		st.copies++
		st.primary = node
	}
}

// onFrontFail settles a request the front end declared failed.
func (h *hedger) onFrontFail(id uint64) {
	st := h.live[id]
	if st == nil {
		return
	}
	st.done = true
	st.timer.Cancel()
	h.release(st)
}

// release frees a fully drained state: settled, with no copy believed
// in flight. States with copies swallowed by a cut or lossy link never
// drain — honest ignorance, bounded by the orphan population.
func (h *hedger) release(st *hedgeState) {
	if st.copies > 0 || !st.done {
		return
	}
	delete(h.live, st.id)
	st.timer = sim.Event{}
	h.free = append(h.free, st)
}

func (h *hedger) get() *hedgeState {
	if n := len(h.free); n > 0 {
		st := h.free[n-1]
		h.free = h.free[:n-1]
		return st
	}
	return &hedgeState{}
}
