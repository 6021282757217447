package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"nmapsim/internal/cluster"
	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	simwl "nmapsim/internal/workload"
)

// workloadDef is one entry of the benchmark catalogue.
type workloadDef struct {
	name string
	why  string
	// span is the measured window that follows the warm-up; tests shrink
	// it. The sweep runs the fixed Quick matrix and ignores it.
	span sim.Duration
	// run executes one repetition in the calling process.
	run func(seed uint64, span sim.Duration) (rep, error)
}

// warmup precedes every measured window.
const warmup = 200 * sim.Millisecond

// catalogue lists the workloads in the order the benchmark visits them.
// The names are stable: later changes cite them.
var catalogue = []workloadDef{
	{
		name: "mc-high-nmap",
		why:  "memcached at 750k RPS under nmap: polling-mode NAPI and the exact latency histogram dominate",
		span: 2 * sim.Second,
		run:  serverWorkload(simwl.Memcached, simwl.High, "nmap"),
	},
	{
		name: "mc-low-ondemand",
		why:  "memcached at 30k RPS under ondemand: interrupt mode, C-state churn and governor ticks, no profiling",
		span: 40 * sim.Second,
		run:  serverWorkload(simwl.Memcached, simwl.Low, "ondemand"),
	},
	{
		name: "nginx-med-nmap",
		why:  "nginx at 48k RPS under nmap: 48 Tx segments per response, ~8x memcached's events per request",
		span: 8 * sim.Second,
		run:  serverWorkload(simwl.Nginx, simwl.Medium, "nmap"),
	},
	{
		name: "fleet4-gray-audit",
		why:  "4-node nmap fleet with gray link faults, a node crash, hedging and the auditor: the only cluster workload",
		span: 400 * sim.Millisecond,
		run:  fleetRep,
	},
	{
		name: "fig12-quick-sweep",
		why:  "the Quick Fig 12/13 matrix on 2 workers: per-cell build cost, harness fan-out and GC",
		run:  sweepRep,
	},
}

// lookup returns the named catalogue entry.
func lookup(name string) (workloadDef, bool) {
	for _, w := range catalogue {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// rep is one repetition's outcome. The child process prints it as one
// JSON line; the parent aggregates the repetitions into metrics.
type rep struct {
	// Err is why the repetition failed its correctness gate ("" = passed).
	Err string `json:",omitempty"`
	// Digest is the FNV-64a of the physics: the JSON Result with the
	// audit report and the latency histogram left out.
	Digest string
	// FirstEventUnixNs is the wall clock just before the first simulated
	// event: the end of set-up.
	FirstEventUnixNs int64
	// SimS is the simulated time run, warm-up included.
	SimS float64
	// RunS is the wall time from the first simulated event through
	// Collect; EngineS and CollectS split it.
	RunS, EngineS, CollectS float64
	// ThresholdsS and BuildS split set-up into NMAP threshold profiling
	// and the rest of the assembly.
	ThresholdsS, BuildS float64
	// Events is Engine.Fired (0 for the sweep, whose engines are private
	// to the harness).
	Events uint64
	// P99us and EnergyJ are the physics sentinels: the P99 response time
	// (the worst cell's, for the sweep) and the measured-window energy
	// (summed over cells).
	P99us, EnergyJ float64
	counts
	// Mallocs and GCs count heap allocations and GC cycles over the run
	// phase.
	Mallocs, GCs uint64
	// Layers is the traced repetition's CPU time per layer.
	Layers map[string]layerCost `json:",omitempty"`
}

// counts are the exact, host-independent counters of one repetition.
type counts struct {
	// Issued counts requests issued at the front end, warm-up included;
	// SimFailed counts those the simulated system failed (timed out,
	// lost, shed, or refused by the fleet router).
	Issued, SimFailed uint64
	// Interrupts, PktIntr, PktPoll and KsoftirqdWakes are summed
	// kernel.Counters over every core.
	Interrupts, PktIntr, PktPoll, KsoftirqdWakes uint64
	PStateTrans, CC6Entries                      int64
	// BusySum sums the per-core busy fractions over Cores cores.
	BusySum float64
	Cores   int
	// RingDrops counts NIC Rx ring overflows; Retransmits counts client
	// retransmissions.
	RingDrops, Retransmits uint64
	// The fleet router's ledger: resteers, hedge copies and the losing
	// copies absorbed, health mark-downs, and copies the fabric lost.
	Resteers, Hedges, HedgeDup, MarkDowns, FabricLost uint64
	// Violations is the auditor's total (audited workloads only).
	Violations uint64
}

// addNode folds one server's per-core and NIC counters into c.
func (c *counts) addNode(r server.Result) {
	c.RingDrops += r.Drops
	c.Retransmits += r.Reqs.Retransmits
	c.PStateTrans += r.Transitions
	for _, pc := range r.PerCore {
		c.Interrupts += pc.Interrupts
		c.PktIntr += pc.PktIntr
		c.PktPoll += pc.PktPoll
		c.KsoftirqdWakes += pc.KsoftirqdWakes
		c.CC6Entries += pc.CC6Entries
		c.BusySum += pc.BusyFrac
		c.Cores++
	}
}

// addServer folds a stand-alone server's result, ledger and audit
// included, into c.
func (c *counts) addServer(r server.Result) {
	c.addNode(r)
	c.Issued += r.Reqs.Issued
	c.SimFailed += r.Reqs.TimedOut + r.Reqs.Lost + r.Reqs.Shed
	if r.Audit != nil {
		c.Violations += r.Audit.Total
	}
}

// checkServer is the per-server correctness gate: a clean audit, a
// consistent request ledger, and a non-empty measured window.
func checkServer(r server.Result) error {
	if err := r.Audit.Err(); err != nil {
		return err
	}
	if !r.Reqs.Consistent() {
		return fmt.Errorf("request ledger inconsistent: %+v", r.Reqs)
	}
	if r.Summary.N == 0 {
		return errors.New("no response measured")
	}
	return nil
}

// physics strips the fields of a server result that are not part of the
// physics digest.
func physics(r server.Result) server.Result {
	r.Hist, r.Audit = nil, nil
	return r
}

// digest returns the FNV-64a of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// thresholdSeed is the profiling seed experiments.BuildOn uses for a
// node seeded with seed, so timing ProfiledThresholds first leaves Build
// a cache hit.
func thresholdSeed(seed uint64) uint64 { return 1000 + seed%4 }

// runPhase runs the timed part of a repetition — the first simulated
// event through Collect — stamping its start and counting its heap
// allocations and GC cycles.
func runPhase(r *rep, run func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	r.FirstEventUnixNs = start.UnixNano()
	err := run()
	r.RunS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.GCs = uint64(m1.NumGC - m0.NumGC)
	return err
}

// serverWorkload runs one server through the public calls Server.Run
// makes, timing each.
func serverWorkload(profile func() *simwl.Profile, level simwl.Level, policy string) func(uint64, sim.Duration) (rep, error) {
	return func(seed uint64, span sim.Duration) (rep, error) {
		var r rep
		spec := experiments.Spec{Policy: policy, Idle: "menu", Cfg: server.Config{
			Seed: seed, Profile: profile(), Level: level, Warmup: warmup, Duration: span,
		}}
		if policy == "nmap" {
			t := time.Now()
			experiments.ProfiledThresholds(spec.Cfg.Profile, thresholdSeed(seed))
			r.ThresholdsS = time.Since(t).Seconds()
		}
		t := time.Now()
		s, err := experiments.Build(spec)
		if err != nil {
			return r, err
		}
		r.BuildS = time.Since(t).Seconds()
		var res server.Result
		err = runPhase(&r, func() error {
			t := time.Now()
			s.Start()
			s.Eng.Run(sim.Time(warmup))
			s.BeginMeasurement()
			s.Eng.Run(sim.Time(warmup + span))
			r.EngineS = time.Since(t).Seconds()
			t = time.Now()
			res = s.Collect()
			r.CollectS = time.Since(t).Seconds()
			return errors.Join(s.Err(), checkServer(res))
		})
		r.SimS = (warmup + span).Seconds()
		r.Events = s.Eng.Fired()
		r.P99us, r.EnergyJ = res.Summary.P99.Micros(), res.EnergyJ
		r.addServer(res)
		if err != nil {
			return r, err
		}
		r.Digest, err = digest(physics(res))
		return r, err
	}
}

// fleetConfig is the fleet4-gray-audit scenario: fig-grayfail's
// degrading link on node 1, a node 2 crash that lands inside a burst,
// and every front-end defence armed.
func fleetConfig(seed uint64, span sim.Duration) cluster.Config {
	prof := simwl.Memcached()
	var f faults.Config
	slow := span / 16
	for _, at := range []sim.Duration{warmup + span/8, warmup + span/4, warmup + 3*span/8} {
		f.LinkSlows = append(f.LinkSlows, faults.LinkSlow{Node: 1, At: at, Duration: slow, Factor: 8})
	}
	f.Partitions = []faults.Partition{{Node: 1, Dir: faults.LinkRx, At: warmup + 5*span/8, Duration: span / 8}}
	f.LinkLosses = []faults.LinkLoss{{Node: 1, At: warmup + 13*span/16, Duration: slow, Prob: 0.05}}
	period := prof.Burst.Period
	crashAt := ((warmup+span/4)/period+1)*period + period/10
	f.NodeCrashes = []faults.NodeCrash{{Node: 2, At: crashAt, Duration: span / 4}}
	return cluster.Config{
		Nodes:        4,
		Route:        "least",
		RouteRetries: 2,
		Health:       cluster.HealthConfig{ProbeTimeout: 20 * sim.Microsecond, FlapHold: span / 8},
		Fabric:       cluster.FabricConfig{Base: 4 * sim.Microsecond, Serve: 200 * sim.Nanosecond, Jitter: sim.Microsecond},
		Hedge:        cluster.HedgeConfig{Enabled: true},
		Node: server.Config{
			Seed:     seed,
			Profile:  prof,
			RPS:      4 * prof.MediumRPS,
			Warmup:   warmup,
			Duration: span,
			Faults:   f,
			Retry:    simwl.RetryConfig{Timeout: 20 * sim.Millisecond},
			Audit:    true,
		},
	}
}

// fleetRep runs the fleet through the public calls Cluster.Run makes,
// timing each.
func fleetRep(seed uint64, span sim.Duration) (rep, error) {
	var r rep
	var thresholds time.Duration
	t := time.Now()
	cl, err := cluster.New(fleetConfig(seed, span), func(_ int, ncfg server.Config, eng *sim.Engine) (*server.Server, error) {
		t := time.Now()
		experiments.ProfiledThresholds(ncfg.Profile, thresholdSeed(ncfg.Seed))
		thresholds += time.Since(t)
		return experiments.BuildOn(experiments.Spec{Policy: "nmap", Idle: "menu", Cfg: ncfg}, eng)
	})
	if err != nil {
		return r, err
	}
	r.ThresholdsS = thresholds.Seconds()
	r.BuildS = (time.Since(t) - thresholds).Seconds()
	var res cluster.Result
	err = runPhase(&r, func() error {
		t := time.Now()
		cl.Start()
		cl.Eng.Run(sim.Time(warmup))
		cl.BeginMeasurement()
		cl.Eng.Run(sim.Time(warmup + span))
		r.EngineS = time.Since(t).Seconds()
		t = time.Now()
		res = cl.Collect()
		r.CollectS = time.Since(t).Seconds()
		return errors.Join(cl.Eng.Err(), checkFleet(res))
	})
	r.SimS = (warmup + span).Seconds()
	r.Events = cl.Eng.Fired()
	r.P99us, r.EnergyJ = res.Summary.P99.Micros(), res.EnergyJ
	for _, nr := range res.Nodes {
		r.addNode(nr)
	}
	r.Issued, r.SimFailed = res.Front.Issued, res.Front.Failed+res.Front.Unroutable
	r.Resteers, r.Hedges = res.Front.Resteers, res.Front.Hedges
	r.HedgeDup = res.Front.HedgeDupDone + res.Front.HedgeDupFail
	r.MarkDowns = res.MarkDowns
	r.FabricLost = res.Fabric.ReqLost + res.Fabric.RespLost
	if res.Audit != nil {
		r.Violations = res.Audit.Total
	}
	if err != nil {
		return r, err
	}
	res.Audit = nil
	nodes := make([]server.Result, len(res.Nodes))
	for i, nr := range res.Nodes {
		nodes[i] = physics(nr)
	}
	res.Nodes = nodes
	r.Digest, err = digest(res)
	return r, err
}

// checkFleet is the fleet's correctness gate: a clean merged audit, a
// consistent front-end ledger and consistent node ledgers.
func checkFleet(res cluster.Result) error {
	if res.Audit == nil {
		return errors.New("fleet ran unaudited")
	}
	if err := res.Audit.Err(); err != nil {
		return err
	}
	if !res.Front.Consistent() {
		return fmt.Errorf("front-end ledger inconsistent: %+v", res.Front)
	}
	for i, nr := range res.Nodes {
		if !nr.Reqs.Consistent() {
			return fmt.Errorf("node %d request ledger inconsistent: %+v", i, nr.Reqs)
		}
	}
	if res.Summary.N == 0 {
		return errors.New("no response measured")
	}
	return nil
}

// sweepWorkers is the sweep's harness fan-out.
const sweepWorkers = 2

// quickCellSim is the simulated time of one Quick-quality cell: 100 ms
// of warm-up and 300 ms measured.
const quickCellSim = 400 * sim.Millisecond

// sweepRep runs the Quick Fig 12/13 matrix the way the figure CLI does,
// with the NMAP thresholds warmed first. The matrix fixes its own seed.
func sweepRep(uint64, sim.Duration) (rep, error) {
	var r rep
	experiments.SetParallelism(sweepWorkers)
	t := time.Now()
	for _, p := range simwl.Profiles() {
		// The matrix seeds every cell with 42, which BuildOn profiles
		// under thresholdSeed(42).
		experiments.ProfiledThresholds(p, thresholdSeed(42))
	}
	r.ThresholdsS = time.Since(t).Seconds()
	var cells []experiments.MatrixCell
	err := runPhase(&r, func() error {
		var err error
		cells, err = experiments.Fig12And13(experiments.Quick)
		return err
	})
	r.EngineS = r.RunS
	if err != nil {
		return r, err
	}
	for i := range cells {
		res := cells[i].Result
		if err := checkServer(res); err != nil {
			return r, fmt.Errorf("cell %s/%s/%s: %w", cells[i].App, cells[i].Level, cells[i].Policy, err)
		}
		r.addServer(res)
		r.SimS += quickCellSim.Seconds()
		r.P99us = max(r.P99us, res.Summary.P99.Micros())
		r.EnergyJ += res.EnergyJ
		cells[i].Result = physics(res)
	}
	r.Digest, err = digest(cells)
	return r, err
}
