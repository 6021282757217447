package cluster

import "nmapsim/internal/workload"

// router is the front end: it receives the single offered-load stream
// from node 0's generator, steers each request to a routable node under
// the configured policy, and resubmits terminally failed requests to
// survivors within the retry budget. All state is engine-thread local
// and every decision is pure arithmetic over it — the router draws no
// randomness, so routing is deterministic for a given schedule.
type router struct {
	c    *Cluster
	acct Accounting

	// attempts tracks how many resteers each live request has consumed,
	// keyed by request ID. Requests that never fail (the overwhelming
	// steady-state majority) are never entered, so the map stays sized
	// by the failure rate, not the offered load.
	attempts map[uint64]int

	// h is the tail-latency hedger, nil unless Config.Hedge.Enabled —
	// the zero-cost contract at the router level.
	h *hedger

	// rrNext is the round-robin cursor; wcur is the smooth-WRR credit
	// vector (weighted policy only).
	rrNext int
	wcur   []int
}

func newRouter(c *Cluster) *router {
	rt := &router{c: c, attempts: make(map[uint64]int)}
	if c.Cfg.Route == "weighted" {
		rt.wcur = make([]int, c.Cfg.Nodes)
	}
	return rt
}

// dispatch sends one request copy toward a node: through the fabric
// when the interconnect is modeled, directly otherwise. Dispatched is
// stamped per attempt — fresh issue, resteer and hedge copies each get
// their own timestamp — so per-attempt fabric latency stays measurable
// while Sent keeps the front-end latency definition.
func (rt *router) dispatch(node int, r *workload.Request) {
	r.Dispatched = rt.c.Eng.Now()
	if f := rt.c.fabric; f != nil {
		f.sendReq(node, r)
		return
	}
	rt.c.Nodes[node].Inject(r)
}

// route is the generator's Deliver hook: book the fresh request into
// the front-end ledger and dispatch it — or refuse it explicitly when
// no node is routable (total fleet outage), recycling the record so the
// refused request neither leaks nor lingers as phantom in-flight.
func (rt *router) route(r *workload.Request) {
	rt.acct.Issued++
	node := rt.pick(r.Flow, -1)
	if node < 0 {
		rt.acct.Unroutable++
		rt.c.Nodes[0].Srv.Pool().Put(r)
		return
	}
	if rt.h != nil {
		rt.h.onIssue(r, node)
	}
	rt.dispatch(node, r)
}

// copyFailed is the node terminal-failure entry point. With hedging on,
// a failure may be absorbed: the request already settled through
// another copy, or another copy is still believed in flight. Otherwise
// the ordinary resteer-or-fail path decides.
func (rt *router) copyFailed(from int, r *workload.Request) {
	if rt.h != nil && rt.h.onCopyFail(r.ID) {
		return
	}
	rt.resteer(from, r)
}

// resteer: within the retry budget, resubmit a copy of the failed
// request to another routable node; beyond it (or with nowhere to go)
// the front end declares the request failed. The failed record is owned
// by its node and about to be recycled, so the copy is taken before
// dispatch — and because the node's request listener runs before the
// node recycles r, the fresh record can never alias r.
func (rt *router) resteer(from int, r *workload.Request) {
	used := rt.attempts[r.ID]
	if used < rt.c.Cfg.RouteRetries {
		if node := rt.pick(r.Flow, from); node >= 0 {
			rt.attempts[r.ID] = used + 1
			rt.acct.Resteers++
			nr := rt.c.Nodes[0].Srv.Pool().Get()
			nr.ID = r.ID
			nr.Flow = r.Flow
			nr.Sent = r.Sent // front-end latency spans the resteer
			nr.AppCycles = r.AppCycles
			if rt.h != nil {
				rt.h.onResteer(r.ID, node)
			}
			rt.dispatch(node, nr)
			return
		}
	}
	delete(rt.attempts, r.ID)
	rt.acct.Failed++
	if rt.h != nil {
		rt.h.onFrontFail(r.ID)
	}
}

// forget clears a completed request's retry state.
func (rt *router) forget(id uint64) { delete(rt.attempts, id) }

// pick chooses the target node for a request under the configured
// policy, never returning exclude (the node that just failed it) while
// any other node is routable, and -1 when no node is routable at all.
func (rt *router) pick(flow uint64, exclude int) int {
	n := rt.c.Cfg.Nodes
	anyRoutable, otherRoutable := false, false
	for i := 0; i < n; i++ {
		if rt.c.routable(i) {
			anyRoutable = true
			if i != exclude {
				otherRoutable = true
			}
		}
	}
	if !anyRoutable {
		return -1
	}
	if !otherRoutable {
		// Only the failing node survives: retrying there beats giving up.
		exclude = -1
	}
	ok := func(i int) bool { return i != exclude && rt.c.routable(i) }

	switch rt.c.Cfg.Route {
	case "", "rr":
		for k := 0; k < n; k++ {
			cand := (rt.rrNext + k) % n
			if ok(cand) {
				rt.rrNext = (cand + 1) % n
				return cand
			}
		}
	case "least":
		best := -1
		for i := 0; i < n; i++ {
			if ok(i) && (best < 0 || rt.c.Nodes[i].live < rt.c.Nodes[best].live) {
				best = i
			}
		}
		return best
	case "weighted":
		// Smooth weighted round-robin over the eligible set, every node
		// of weight 1: every eligible node earns one credit, the richest
		// serves and pays back the round's total. Deterministic ties
		// break to the lowest index.
		best, total := -1, 0
		for i := 0; i < n; i++ {
			if !ok(i) {
				continue
			}
			rt.wcur[i]++
			total++
			if best < 0 || rt.wcur[i] > rt.wcur[best] {
				best = i
			}
		}
		if best >= 0 {
			rt.wcur[best] -= total
		}
		return best
	case "flow":
		// Flow affinity with failover: the flow's home node unless it is
		// down, then the next routable index — deterministic, so a flow
		// sticks to one failover target for the outage's duration.
		home := int(flow % uint64(n))
		for k := 0; k < n; k++ {
			cand := (home + k) % n
			if ok(cand) {
				return cand
			}
		}
	}
	return -1
}
