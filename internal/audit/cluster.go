// Cluster-level conservation: the front-end hand-off identity checked
// across a fleet of nodes. Unlike the per-run rules, which the Auditor
// accumulates at event granularity, the cluster identity is closed-form
// over end-of-run ledgers, so it is checked standalone and merged into
// the per-node reports by name (Report.Merge matches rules by name, so
// a rule outside the per-run rule array composes cleanly).
package audit

import (
	"fmt"

	"nmapsim/internal/sim"
)

// RuleClusterConservation is the cross-node identity family: no request
// crosses the front-end hand-off unaccounted, even while nodes are
// down. Evaluated by CheckCluster, never by a per-run Auditor.
const RuleClusterConservation Rule = "cluster-conservation"

// ClusterFinal is the end-of-run snapshot CheckCluster audits: the
// front-end router's ledger plus every node's client-side ledger.
type ClusterFinal struct {
	// Front-end router ledger.
	FrontIssued     uint64 // requests the generator handed the router
	FrontCompleted  uint64 // requests whose response reached the front end
	FrontFailed     uint64 // requests terminally failed after exhausting the retry budget (or with no survivor)
	FrontUnroutable uint64 // fresh requests refused because no node was routable
	FrontInFlight   uint64 // requests the router still considers live
	Resteers        uint64 // node-failure resubmissions the router dispatched

	// Hedge ledger (all zero with hedging off). Hedges counts duplicate
	// copies the router dispatched; HedgeDupDone / HedgeDupFail count
	// losing copies whose completion / node-side failure was absorbed
	// after the request settled (or, for failures, while another copy
	// was still believed in flight).
	Hedges       uint64
	HedgeDupDone uint64
	HedgeDupFail uint64

	// Interconnect ledger (all zero with the fabric off or unperturbed).
	// FabricReqLost / FabricRespLost count copies dropped on a cut or
	// lossy leg — requests silently blackholed front→node, and responses
	// the node produced that the front never heard (the one-way-
	// partition orphans). FabricReqTransit / FabricRespTransit count
	// copies on the wire at the snapshot instant.
	FabricReqLost     uint64
	FabricRespLost    uint64
	FabricReqTransit  uint64
	FabricRespTransit uint64

	// Per-node ledgers, one entry per node in node order. NodeFailed is
	// the node's TimedOut + Lost + Shed (every terminal failure the
	// router's node listener observed).
	NodeIssued    []uint64
	NodeCompleted []uint64
	NodeFailed    []uint64
	NodeInFlight  []uint64
}

// CheckCluster evaluates the cluster conservation identities over f and
// returns a single-rule report (merge it into the per-node reports with
// Report.Merge). The identities — each an all-addition form whose hedge
// and fabric terms are zero for a zero-cost front end, degrading
// exactly to the original hand-off identities:
//
//  1. Σ node Issued + unroutable + link-dropped requests + requests in
//     transit == front-end Issued + resteers + hedges — every copy the
//     router dispatched either reached some node's ledger, was refused
//     explicitly, was dropped by a cut or lossy leg (counted, never
//     vanished), or is still on the wire.
//  2. front Issued == Completed + Failed + Unroutable + InFlight — the
//     router's own ledger balances (hedge duplicates never enter it).
//  3. Σ node Completed == front Completed + hedge duplicate completions
//     + link-dropped responses + responses in transit — a completion on
//     any node is exactly one front-end completion, a losing hedge
//     copy, an orphaned response on a cut return leg, or on the wire.
//  4. Σ node failures == resteers + front Failed + absorbed hedge
//     duplicate failures — every node-side terminal failure was
//     resubmitted, became a front-end failure, or was absorbed by a
//     surviving hedge copy; none vanished (link losses are silent by
//     design and never notify).
//  5. Σ node InFlight + copies in transit (both directions) + copies
//     dropped by the link + absorbed hedge duplicates == front InFlight
//     + hedges — liveness agrees across the hand-off once the wire, the
//     losses the front end cannot see, and the duplicate copies are
//     accounted.
func CheckCluster(now sim.Time, f ClusterFinal) *Report {
	rep := &Report{Rules: []RuleStat{{Rule: RuleClusterConservation}}}
	rs := &rep.Rules[0]
	check := func(ok bool, format string, args ...any) {
		rs.Checks++
		if ok {
			return
		}
		rs.Violations++
		rep.Total++
		if len(rep.Violations) < maxDetail {
			rep.Violations = append(rep.Violations, Violation{
				Rule:   RuleClusterConservation,
				Time:   now,
				Core:   -1,
				Detail: fmt.Sprintf(format, args...),
			})
		}
	}
	var issued, completed, failed, inflight uint64
	for _, v := range f.NodeIssued {
		issued += v
	}
	for _, v := range f.NodeCompleted {
		completed += v
	}
	for _, v := range f.NodeFailed {
		failed += v
	}
	for _, v := range f.NodeInFlight {
		inflight += v
	}
	check(issued+f.FrontUnroutable+f.FabricReqLost+f.FabricReqTransit == f.FrontIssued+f.Resteers+f.Hedges,
		"Σ node issued + unroutable + link-dropped + in-transit != front issued + resteers + hedges: %d + %d + %d + %d != %d + %d + %d",
		issued, f.FrontUnroutable, f.FabricReqLost, f.FabricReqTransit, f.FrontIssued, f.Resteers, f.Hedges)
	check(f.FrontIssued == f.FrontCompleted+f.FrontFailed+f.FrontUnroutable+f.FrontInFlight,
		"front issued != completed + failed + unroutable + in-flight: %d != %d + %d + %d + %d",
		f.FrontIssued, f.FrontCompleted, f.FrontFailed, f.FrontUnroutable, f.FrontInFlight)
	check(completed == f.FrontCompleted+f.HedgeDupDone+f.FabricRespLost+f.FabricRespTransit,
		"Σ node completed != front completed + hedge dups + link-dropped + in-transit responses: %d != %d + %d + %d + %d",
		completed, f.FrontCompleted, f.HedgeDupDone, f.FabricRespLost, f.FabricRespTransit)
	check(failed == f.Resteers+f.FrontFailed+f.HedgeDupFail,
		"Σ node failures != resteers + front failed + hedge dup failures: %d != %d + %d + %d",
		failed, f.Resteers, f.FrontFailed, f.HedgeDupFail)
	check(inflight+f.FabricReqTransit+f.FabricRespTransit+f.FabricReqLost+f.FabricRespLost+f.HedgeDupDone+f.HedgeDupFail == f.FrontInFlight+f.Hedges,
		"Σ node in-flight + in-transit + link-dropped + hedge dups != front in-flight + hedges: %d + %d + %d + %d + %d + %d + %d != %d + %d",
		inflight, f.FabricReqTransit, f.FabricRespTransit, f.FabricReqLost, f.FabricRespLost,
		f.HedgeDupDone, f.HedgeDupFail, f.FrontInFlight, f.Hedges)
	return rep
}
