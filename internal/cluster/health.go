package cluster

import "nmapsim/internal/sim"

// nodePhase is a node's health as the router sees it — a three-state
// circuit breaker driven by the deterministic prober.
type nodePhase uint8

const (
	// phaseUp: routable, failures reset the probe counter only.
	phaseUp nodePhase = iota
	// phaseHalfOpen: the node answered a probe after being down; it is
	// routable again (that trial traffic is what closes the circuit) but
	// one terminal failure reopens it immediately.
	phaseHalfOpen
	// phaseDown: not routable; probes keep running to detect recovery.
	phaseDown
)

// The prober's fixed parameters: the probe interval, and how many
// consecutive failed probes mark a node down.
const (
	probeEvery    = 5 * sim.Millisecond
	markDownAfter = 2
)

// health is the cluster's deterministic health model: a probe tick per
// interval per node (asking only node state and — when the fabric is
// modeled — the link's deterministic delay estimate: no packets, no
// RNG, no physics), mark-down after markDownAfter consecutive failed
// probes, and half-open recovery requiring halfOpenSuccess completions
// before the node counts as fully up. With FlapHold set, every
// mark-down also arms an exponentially growing hold-off that keeps the
// node down even once probes pass again — flap damping, so an
// oscillating gray link converges to "down" instead of cycling the node
// in and out of rotation. The probe events are physics-neutral: they
// read node and fabric state and touch only router-side bookkeeping, so
// a fault-free run's physics are byte-identical with the prober on.
type health struct {
	c   *Cluster
	cfg HealthConfig
	// halfOpenSuccess is how many completions a half-open (recovering)
	// node must serve before it is fully up again.
	halfOpenSuccess int
	phase           []nodePhase
	// fails counts consecutive failed probes; okRun counts completions
	// observed while half-open.
	fails, okRun []int
	// holdUntil / penalty are the flap-damping state: the instant before
	// which a marked-down node may not re-enter half-open, and the
	// current per-node hold-off (doubling on every mark-down, capped at
	// 16×FlapHold, never decaying within a run).
	holdUntil          []sim.Time
	penalty            []sim.Duration
	markDowns, markUps uint64
}

func newHealth(c *Cluster) *health {
	h := &health{
		c:               c,
		cfg:             c.Cfg.Health,
		halfOpenSuccess: 1,
		phase:           make([]nodePhase, c.Cfg.Nodes),
		fails:           make([]int, c.Cfg.Nodes),
		okRun:           make([]int, c.Cfg.Nodes),
	}
	if h.cfg.FlapHold > 0 {
		h.holdUntil = make([]sim.Time, c.Cfg.Nodes)
		h.penalty = make([]sim.Duration, c.Cfg.Nodes)
	}
	return h
}

func (h *health) start() {
	h.c.Eng.Ticker(probeEvery, h.probe)
}

// probeFails is one probe's verdict on node i: the node itself is down,
// the link is cut in either direction (the probe can neither reach nor
// hear), or — with ProbeTimeout set — the link's current deterministic
// one-way delay estimate exceeds the timeout (gray degradation looks
// exactly like unhealth to the prober). Jitter is deliberately excluded
// from the estimate: probes draw nothing from the fabric's stream.
func (h *health) probeFails(i int) bool {
	if h.c.Nodes[i].Srv.NodeDown() {
		return true
	}
	f := h.c.fabric
	if f == nil {
		return false
	}
	if f.linkCut(i) {
		return true
	}
	return h.cfg.ProbeTimeout > 0 && f.legDelay(i, f.txQ[i]) > h.cfg.ProbeTimeout
}

// probe examines every node once per interval.
func (h *health) probe() {
	for i := range h.c.Nodes {
		if h.probeFails(i) {
			h.fails[i]++
			h.okRun[i] = 0
			if h.phase[i] != phaseDown && h.fails[i] >= markDownAfter {
				h.markDown(i)
			}
			continue
		}
		h.fails[i] = 0
		if h.phase[i] == phaseDown && h.holdExpired(i) {
			// The machine (and its link) look healthy and any flap
			// hold-off has lapsed: admit trial traffic.
			h.phase[i] = phaseHalfOpen
		}
	}
}

// markDown opens the circuit and, with flap damping armed, doubles the
// node's hold-off.
func (h *health) markDown(i int) {
	h.phase[i] = phaseDown
	h.okRun[i] = 0
	h.markDowns++
	if h.cfg.FlapHold > 0 {
		p := min(max(h.penalty[i]*2, h.cfg.FlapHold), 16*h.cfg.FlapHold)
		h.penalty[i] = p
		h.holdUntil[i] = h.c.Eng.Now() + sim.Time(p)
	}
}

// holdExpired reports whether node i's flap hold-off has lapsed (always
// true with damping off).
func (h *health) holdExpired(i int) bool {
	return h.cfg.FlapHold == 0 || h.c.Eng.Now() >= h.holdUntil[i]
}

// routable is the router's view: everything but Down takes traffic.
func (h *health) routable(i int) bool { return h.phase[i] != phaseDown }

// observeSuccess credits a completion toward closing a half-open
// node's circuit.
func (h *health) observeSuccess(i int) {
	if h.phase[i] != phaseHalfOpen {
		return
	}
	h.okRun[i]++
	if h.okRun[i] >= h.halfOpenSuccess {
		h.phase[i] = phaseUp
		h.okRun[i] = 0
		h.markUps++
	}
}

// observeFailure reopens a half-open node's circuit on the first
// terminal failure — trial traffic proved the node is not ready.
func (h *health) observeFailure(i int) {
	if h.phase[i] != phaseHalfOpen {
		return
	}
	h.markDown(i)
}
