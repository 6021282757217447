package main

import (
	"math"
	"sort"
	"strings"
)

// metricSpec names one reported metric. A metric with a per-repetition
// extractor reports the median of its untraced repetitions; the others
// are exact counts or come from the traced pass.
type metricSpec struct {
	name, unit, better string
	of                 func(sample) float64
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced repetitions.
var endToEnd = []metricSpec{
	{"sim_s_per_wall_s", "sim-s/s", "higher", func(s sample) float64 { return s.SimS / s.RunS }},
	{"setup_s", "s", "lower", func(s sample) float64 { return s.setupS }},
	{"max_rss_mb", "MB", "lower", func(s sample) float64 { return s.rssMB }},
}

// perLayer are the metrics of single layers: host time per layer from
// the traced pass, direct timings of the public calls, and exact counts.
var perLayer = func() []metricSpec {
	var ms []metricSpec
	for _, l := range layers {
		ms = append(ms, metricSpec{l + ".cpu_ns_per_req", "ns/req", "lower", nil})
	}
	return append(ms,
		metricSpec{"trace.samples", "count", "higher", nil},
		metricSpec{"trace.overhead_pct", "%", "lower", nil},
		metricSpec{"experiments.thresholds_s", "s", "lower", func(s sample) float64 { return s.ThresholdsS }},
		metricSpec{"experiments.build_s", "s", "lower", func(s sample) float64 { return s.BuildS }},
		metricSpec{"sim.run_s", "s", "lower", func(s sample) float64 { return s.EngineS }},
		metricSpec{"stats.collect_ms", "ms", "lower", func(s sample) float64 { return s.CollectS * 1e3 }},
		metricSpec{"sim.host_ns_per_event", "ns/event", "lower", func(s sample) float64 { return ratio(s.EngineS*1e9, float64(s.Events)) }},
		metricSpec{"runtime.allocs_per_req", "allocs/req", "lower", func(s sample) float64 { return ratio(float64(s.Mallocs), float64(s.Issued)) }},
		metricSpec{"runtime.gc_cycles", "count", "lower", func(s sample) float64 { return float64(s.GCs) }},
		metricSpec{"sim.events_per_req", "events/req", "lower", nil},
		metricSpec{"nic.irqs_per_kreq", "1/kreq", "lower", nil},
		metricSpec{"nic.ring_drops", "count", "lower", nil},
		metricSpec{"kernel.poll_pkt_frac", "frac", "higher", nil},
		metricSpec{"kernel.ksoftirqd_wakes_per_kreq", "1/kreq", "lower", nil},
		metricSpec{"cpu.pstate_trans_per_kreq", "1/kreq", "lower", nil},
		metricSpec{"cpu.cc6_entries_per_kreq", "1/kreq", "lower", nil},
		metricSpec{"cpu.busy_frac", "frac", "lower", nil},
		metricSpec{"workload.retransmits", "count", "lower", nil},
		metricSpec{"cluster.resteers", "count", "lower", nil},
		metricSpec{"cluster.hedges_per_kreq", "1/kreq", "lower", nil},
		metricSpec{"cluster.hedge_dup_frac", "frac", "lower", nil},
		metricSpec{"cluster.markdowns", "count", "lower", nil},
		metricSpec{"cluster.fabric_lost", "count", "lower", nil},
		metricSpec{"audit.violations", "count", "lower", nil},
		metricSpec{"failed_frac", "frac", "lower", nil},
		metricSpec{"sim_p99_us", "us", "lower", nil},
		metricSpec{"sim_energy_j", "J", "lower", nil},
	)
}()

// tracedOnly reports whether a metric needs the traced pass.
func tracedOnly(name string) bool {
	return strings.HasPrefix(name, "trace.") || strings.HasSuffix(name, ".cpu_ns_per_req")
}

// sample is one repetition as the parent saw it.
type sample struct {
	rep
	traced bool
	// setupS runs from just before the parent started the child to the
	// child's first simulated event; wallS is the child's whole life.
	setupS, wallS float64
	rssMB         float64
}

// split separates untraced from traced repetitions.
func split(all []sample) (plain, traced []sample) {
	for _, s := range all {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	return plain, traced
}

// values applies a per-repetition extractor to every sample.
func values(ss []sample, of func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = of(s)
	}
	return xs
}

// summarize computes every metric the samples support. They all passed
// the correctness gate, so their physics and counts agree, and at least
// one is untraced.
func summarize(all []sample) map[string]float64 {
	plain, traced := split(all)
	m := map[string]float64{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if s.of != nil {
				m[s.name] = median(values(plain, s.of))
			}
		}
	}

	r := plain[0].rep
	perKreq := func(n float64) float64 { return ratio(1e3*n, float64(r.Issued)) }
	m["sim.events_per_req"] = ratio(float64(r.Events), float64(r.Issued))
	m["nic.irqs_per_kreq"] = perKreq(float64(r.Interrupts))
	m["nic.ring_drops"] = float64(r.RingDrops)
	m["kernel.poll_pkt_frac"] = ratio(float64(r.PktPoll), float64(r.PktPoll+r.PktIntr))
	m["kernel.ksoftirqd_wakes_per_kreq"] = perKreq(float64(r.KsoftirqdWakes))
	m["cpu.pstate_trans_per_kreq"] = perKreq(float64(r.PStateTrans))
	m["cpu.cc6_entries_per_kreq"] = perKreq(float64(r.CC6Entries))
	m["cpu.busy_frac"] = ratio(r.BusySum, float64(r.Cores))
	m["workload.retransmits"] = float64(r.Retransmits)
	m["cluster.resteers"] = float64(r.Resteers)
	m["cluster.hedges_per_kreq"] = perKreq(float64(r.Hedges))
	m["cluster.hedge_dup_frac"] = ratio(float64(r.HedgeDup), float64(r.Hedges))
	m["cluster.markdowns"] = float64(r.MarkDowns)
	m["cluster.fabric_lost"] = float64(r.FabricLost)
	m["audit.violations"] = float64(r.Violations)
	m["failed_frac"] = ratio(float64(r.SimFailed), float64(r.Issued))
	m["sim_p99_us"] = r.P99us
	m["sim_energy_j"] = r.EnergyJ

	if len(traced) == 0 {
		return m
	}
	var reqs, samples int64
	ns := map[string]int64{}
	for _, s := range traced {
		reqs += int64(s.Issued)
		for l, c := range s.Layers {
			ns[l] += c.Ns
			samples += c.Samples
		}
	}
	for _, l := range layers {
		m[l+".cpu_ns_per_req"] = ratio(float64(ns[l]), float64(reqs))
	}
	m["trace.samples"] = float64(samples)
	wall := func(s sample) float64 { return s.wallS }
	m["trace.overhead_pct"] = 100 * (median(values(traced, wall))/median(values(plain, wall)) - 1)
	return m
}

// ratio is a/b, or 0 when b is 0 (a count the workload never exercises).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles (n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
