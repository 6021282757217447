// Package nmapsim is a full reproduction, in pure Go, of NMAP — "Power
// Management Based on Network Packet Processing Mode Transition for
// Latency-Critical Workloads" (Kang et al., MICRO 2021) — together with
// the complete experimental platform the paper ran on, rebuilt as a
// deterministic discrete-event simulation.
//
// The library models: a multi-core server processor with per-core DVFS
// (P-states with realistic transition and re-transition latencies),
// C-states (with measured wake-up latencies and CC6 cache-flush
// penalties), and an exact V²f power/energy model; a multi-queue NIC
// with RSS, interrupt throttling and Tx completions; the Linux NAPI
// receive path (interrupt vs. polling mode, softirq budget rules,
// ksoftirqd migration) with per-core application threads; bursty
// memcached- and nginx-like open-loop workloads; the standard Linux
// cpufreq and idle governors; the NMAP governor itself (both flavours,
// plus its offline threshold profiler); and the NCAP and Parties
// baselines.
//
// This root package is the high-level facade: build a Scenario, pick a
// policy by name, and Run it, or Compare several policies at once. Each
// run is one cell of the experiments harness, the same path every figure
// takes. The package examples show typical usage; cmd/nmapsim
// regenerates every table and figure of the paper.
package nmapsim

import (
	"cmp"
	"context"
	"fmt"

	"nmapsim/internal/core"
	"nmapsim/internal/experiments"
	"nmapsim/internal/governor"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Policy names accepted by Scenario.Policy.
var Policies = experiments.PolicyNames

// IdlePolicies lists the accepted C-state policy names.
var IdlePolicies = governor.IdlePolicies

// Scenario describes one simulated run of the server testbed.
type Scenario struct {
	// App selects the workload: "memcached" (default) or "nginx".
	App string
	// Policy selects power management: one of Policies (default
	// "nmap").
	Policy string
	// Idle selects the C-state policy (default "menu").
	Idle string
	// Load is the offered load: "low", "medium" or "high" (default
	// "high"). Ignored when RPS is set.
	Load string
	// RPS overrides the load level with an explicit request rate.
	RPS float64
	// Seed makes the run reproducible (default 42).
	Seed uint64
	// WarmupMs and DurationMs delimit the measured window (defaults
	// 200 and 1000).
	WarmupMs, DurationMs int
}

// Result is the outcome of one run.
type Result struct {
	// P50, P99 and Max are response-time percentiles in milliseconds.
	P50, P99, Max float64
	// SLOMs is the application's P99 objective in milliseconds;
	// Violated reports P99 > SLO; FracOverSLO is the fraction of
	// responses exceeding it.
	SLOMs       float64
	Violated    bool
	FracOverSLO float64
	// EnergyJ is the package (RAPL-style) energy over the measured
	// window; AvgPowerW the corresponding mean power.
	EnergyJ, AvgPowerW float64
	// Requests is the number of measured responses.
	Requests int
	// Transitions counts V/F transitions across all cores.
	Transitions int64
	// Hist gives access to the full latency distribution.
	Hist *stats.Hist
}

func (s Scenario) profile() (*workload.Profile, error) {
	if p, ok := workload.ProfileByName(cmp.Or(s.App, "memcached")); ok {
		return p, nil
	}
	return nil, fmt.Errorf("nmapsim: unknown app %q", s.App)
}

// levels maps Scenario.Load to its workload level ("" is the default).
var levels = map[string]workload.Level{"low": workload.Low, "medium": workload.Medium, "high": workload.High, "": workload.High}

func (s Scenario) spec() (experiments.Spec, error) {
	prof, err := s.profile()
	if err != nil {
		return experiments.Spec{}, err
	}
	lvl, ok := levels[s.Load]
	if !ok {
		return experiments.Spec{}, fmt.Errorf("nmapsim: unknown load %q", s.Load)
	}
	cfg := server.Config{Seed: cmp.Or(s.Seed, 42), Profile: prof, Level: lvl, RPS: s.RPS}
	if s.WarmupMs > 0 {
		cfg.Warmup = sim.Duration(s.WarmupMs) * sim.Millisecond
	}
	if s.DurationMs > 0 {
		cfg.Duration = sim.Duration(s.DurationMs) * sim.Millisecond
	}
	return experiments.Spec{Policy: cmp.Or(s.Policy, "nmap"), Idle: cmp.Or(s.Idle, "menu"), Cfg: cfg}, nil
}

// Run executes the scenario and returns its result.
func (s Scenario) Run() (Result, error) {
	out, err := run(s)
	if err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// run runs the scenarios as one batch of cells on the default harness's
// worker pool and returns their results in input order.
func run(scs ...Scenario) ([]Result, error) {
	specs := make([]experiments.Spec, len(scs))
	for i, s := range scs {
		spec, err := s.spec()
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	cells, err := new(experiments.Harness).RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(cells))
	for i, c := range cells {
		res := c.Result
		out[i] = Result{
			P50:         res.Summary.P50.Millis(),
			P99:         res.Summary.P99.Millis(),
			Max:         res.Summary.Max.Millis(),
			SLOMs:       res.SLO.Millis(),
			Violated:    res.Violated,
			FracOverSLO: res.FracOverSLO,
			EnergyJ:     res.EnergyJ,
			AvgPowerW:   res.AvgPowerW,
			Requests:    res.Summary.N,
			Transitions: res.Transitions,
			Hist:        res.Hist,
		}
	}
	return out, nil
}

// Thresholds carries the NMAP thresholds of §4.2 (re-exported for
// users tuning their own workloads).
type Thresholds = core.Thresholds

// ProfileThresholds returns the NMAP thresholds the paper's offline
// profiling (§4.2) derives for the given app ("memcached" or "nginx")
// at a profiling seed (0 means 1001). Seeds 1000–1003 are served from a
// committed table, checked bit for bit against the profiling run by the
// experiments tests; any other seed runs the profiling once per process.
func ProfileThresholds(app string, seed uint64) (Thresholds, error) {
	prof, err := Scenario{App: app}.profile()
	if err != nil {
		return Thresholds{}, err
	}
	return experiments.ProfiledThresholds(prof, cmp.Or(seed, 1001)), nil
}

// Compare runs the same scenario under several policies, as one batch
// on the worker pool, and returns the results keyed by policy name — the
// quickest way to reproduce the paper's headline comparison on one
// configuration.
func Compare(s Scenario, policies ...string) (map[string]Result, error) {
	if len(policies) == 0 {
		policies = []string{"ondemand", "performance", "nmap"}
	}
	scs := make([]Scenario, len(policies))
	for i, p := range policies {
		scs[i] = s
		scs[i].Policy = p
	}
	res, err := run(scs...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(policies))
	for i, p := range policies {
		out[p] = res[i]
	}
	return out, nil
}
