// Command nmapsim runs the NMAP-reproduction experiment harness: one
// sub-command per table/figure of the paper's evaluation, plus the
// ablations described in DESIGN.md.
//
// Usage:
//
//	nmapsim [-quick] [-faults SPEC] [-rto DUR] [-retries N] [-nodes N] [-route NAME]
//	        [-cpuprofile FILE] [-memprofile FILE] <experiment>
//	nmapsim -list
//
// Experiments: fig2 fig3 fig4 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16 fig-resilience fig-cluster fig-grayfail table1
// table2 ablation-perrequest ablation-thresholds ablation-chipwide all
//
// fig-cluster simulates a fleet of NMAP nodes behind a health-checked
// router (-nodes, -route, -hedge). Node-level faults come from the same
// -faults spec as everything else, e.g. -faults nodecrash=1@250ms:100ms
// or partition=fe|1@250ms:100ms,linkslow=1@100ms:50ms:8; an interrupt
// (Ctrl-C) mid-run renders the partial figure — every node's results so
// far, in input order — before exiting non-zero. fig-grayfail degrades
// one node's link (slow-downs, a one-way cut, a lossy window) and
// compares naive, flap-damped, and hedged front ends over the modeled
// interconnect.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

var quick = flag.Bool("quick", false, "use short measurement windows (smoke-test quality)")
var list = flag.Bool("list", false, "list available experiments")
var parallel = flag.Int("parallel", 0,
	"simulation cells in flight at once (0 = one per CPU, 1 = serial)")
var faultSpec = flag.String("faults", "",
	"fault-injection spec, e.g. loss=0.01,irqloss=0.001,irqjitter=5us,dmajitter=200ns,throttle=10/20ms@12")
var rto = flag.Duration("rto", 0,
	"client retransmission timeout (0 disables the retry loop), e.g. 10ms")
var retries = flag.Int("retries", 0,
	"max retransmissions per request (0 = default 3; needs -rto)")
var cellTimeout = flag.Duration("cell-timeout", 0,
	"wall-clock budget per simulation cell (0 = unlimited)")
var cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to FILE")
var memprofile = flag.String("memprofile", "", "write a heap (allocs) profile at exit to FILE")
var auditOn = flag.Bool("audit", false,
	"run every simulation under the invariant auditor (fails the run on any violation)")
var auditReport = flag.Bool("audit-report", false,
	"with -audit: print the per-rule check/violation summary after the run")
var nodes = flag.Int("nodes", 4,
	"fig-cluster: number of NMAP nodes in the fleet")
var route = flag.String("route", "rr",
	"fig-cluster: routing policy — rr, least, weighted, flow")
var hedge = flag.Bool("hedge", false,
	"fig-cluster: arm tail-latency request hedging at the front end")

// simFlags is every numeric knob the CLI validates before running.
type simFlags struct {
	parallel    int
	cellTimeout time.Duration
}

// validateFlags rejects nonsensical flag values with errors naming the
// flag, before any work starts.
func validateFlags(f simFlags) error {
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", f.parallel)
	}
	if f.cellTimeout < 0 {
		return fmt.Errorf("-cell-timeout must be >= 0 (0 = unlimited), got %v", f.cellTimeout)
	}
	return nil
}

type experiment struct {
	name, desc string
	run        func(h *experiments.Harness, q experiments.Quality) error
}

func q2() experiments.Quality {
	if *quick {
		return experiments.Quick
	}
	return experiments.Full
}

var catalog = []experiment{
	{"table1", "re-transition latency, 4 CPUs x 6 transitions (10,000 reps)", func(h *experiments.Harness, q experiments.Quality) error {
		reps := 10000
		if q == experiments.Quick {
			reps = 500
		}
		fmt.Println(experiments.RenderTable1(experiments.Table1(reps)))
		return nil
	}},
	{"table2", "C-state wake-up latency, 4 CPUs x 2 states (100 reps)", func(h *experiments.Harness, q experiments.Quality) error {
		fmt.Println(experiments.RenderTable2(experiments.Table2(100)))
		return nil
	}},
	{"fig2", "NAPI mode split + ondemand P-state trace at high load", func(h *experiments.Harness, q experiments.Quality) error {
		figs, err := h.Fig2(q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTraceFigures("Fig 2: ondemand governor, high load", figs))
		return nil
	}},
	{"fig3", "per-request latency over 0.5s, ondemand vs performance", runFig34},
	{"fig4", "response-time CDFs, ondemand vs performance", runFig34},
	{"fig7", "CC6 entries and packet split under menu (low vs high load)", func(h *experiments.Harness, q experiments.Quality) error {
		figs, err := h.Fig7(q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTraceFigures("Fig 7: menu governor sleep behaviour (performance governor)", figs))
		return nil
	}},
	{"fig8", "latency-load curve + energy for menu/disable/c6only", func(h *experiments.Harness, q experiments.Quality) error {
		pts, err := h.Fig8(q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig8(pts))
		return nil
	}},
	{"fig9", "NAPI mode split + NMAP P-state trace at high load", func(h *experiments.Harness, q experiments.Quality) error {
		figs, err := h.Fig9(q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTraceFigures("Fig 9: NMAP, high load", figs))
		return nil
	}},
	{"fig10", "per-request latency over 0.5s under NMAP", runFig1011},
	{"fig11", "response-time CDFs under NMAP", runFig1011},
	{"fig12", "P99 matrix: 5 V/F policies x 3 sleep policies x 3 loads x 2 apps", runFig1213},
	{"fig13", "energy matrix for the same configurations", runFig1213},
	{"fig14", "P99 vs state-of-the-art (NCAP, NCAP-menu)", runFig1415},
	{"fig15", "energy vs state-of-the-art (NCAP, NCAP-menu)", runFig1415},
	{"fig16", "randomly switching load: NMAP vs Parties", func(h *experiments.Harness, q experiments.Quality) error {
		figs, err := h.Fig16(q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig16(figs))
		return nil
	}},
	{"fig-resilience", "P99 + shed rate through a core crash and recovery", func(h *experiments.Harness, q experiments.Quality) error {
		fig, err := h.FigResilience(q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderResilience(fig))
		return nil
	}},
	{"fig-cluster", "fleet P99 + energy + offline-node timeline through a node crash (-nodes, -route, -hedge)", runFigCluster},
	{"fig-grayfail", "gray link faults: naive vs flap-damped vs hedged front end (-nodes, -route)", runFigGrayFail},
	{"ablation-perrequest", "per-request DVFS vs NMAP under re-transition latency (5.1)",
		runAblation("Ablation: per-request DVFS pays the re-transition latency",
			(*experiments.Harness).AblationPerRequest)},
	{"ablation-thresholds", "NI_TH sensitivity sweep",
		runAblation("Ablation: NI_TH sensitivity (memcached, high load)",
			(*experiments.Harness).AblationThresholds)},
	{"ablation-chipwide", "per-core vs chip-wide NMAP",
		runAblation("Ablation: per-core vs chip-wide NMAP (memcached, medium load)",
			(*experiments.Harness).AblationChipWide)},
	{"ablation-extensions", "future-work extensions: online tuning, sleep integration",
		runAblation("Ablation: NMAP future-work extensions (memcached, high load)",
			(*experiments.Harness).AblationExtensions)},
	{"ablation-rss", "per-core vs chip-wide NMAP under lumpy RSS",
		runAblation("Ablation: RSS imbalance and per-core DVFS (memcached, medium load)",
			(*experiments.Harness).AblationRSS)},
	{"ablation-itr", "NIC interrupt-throttle period sensitivity",
		runAblation("Ablation: ITR period sensitivity (memcached, high load, NMAP)",
			(*experiments.Harness).AblationITR)},
	{"ablation-microslo", "sleep states vs a 90µs SLO (the §8 outlook)", func(h *experiments.Harness, q experiments.Quality) error {
		cells, err := h.AblationMicroSLO(q)
		if err != nil {
			return err
		}
		fmt.Println("== Ablation: sleep states against a 90µs SLO (µs-scale service) ==")
		fmt.Printf("%-14s %-9s %10s %9s %10s\n", "policy", "idle", "p99(µs)", "violated", "energy(J)")
		for _, c := range cells {
			fmt.Printf("%-14s %-9s %10.1f %9v %10.1f\n",
				c.Policy, c.Idle, c.P99.Micros(), c.Violated, c.EnergyJ)
		}
		fmt.Println()
		return nil
	}},
}

// runAblation adapts an ablation runner into a catalog entry that
// renders the table on success and surfaces the error otherwise.
func runAblation(title string, fn func(*experiments.Harness, experiments.Quality) ([]experiments.AblationCell, error)) func(*experiments.Harness, experiments.Quality) error {
	return func(h *experiments.Harness, q experiments.Quality) error {
		cells, err := fn(h, q)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderAblation(title, cells))
		return nil
	}
}

// runFigCluster runs the fleet experiment under an interruptible
// context: Ctrl-C / SIGTERM aborts the simulation at its next simulated
// millisecond, and whatever arms (and per-node results, in input order)
// are in hand are rendered before the non-zero exit.
func runFigCluster(h *experiments.Harness, q experiments.Quality) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fig, err := h.FigClusterCtx(ctx, q, *nodes, *route, *hedge)
	if len(fig.Arms) > 0 {
		fmt.Println(experiments.RenderCluster(fig))
	}
	return err
}

// runFigGrayFail runs the gray-failure experiment under the same
// interruptible context discipline as fig-cluster.
func runFigGrayFail(h *experiments.Harness, q experiments.Quality) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fig, err := h.FigGrayFailCtx(ctx, q, *nodes, *route)
	if len(fig.Arms) > 0 {
		fmt.Println(experiments.RenderGrayFail(fig))
	}
	return err
}

func runFig34(h *experiments.Harness, q experiments.Quality) error {
	figs, err := h.Fig3And4(q)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderLatencyFigures("Figs 3+4: ondemand vs performance, high load", figs))
	return nil
}

func runFig1011(h *experiments.Harness, q experiments.Quality) error {
	figs, err := h.Fig10And11(q)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderLatencyFigures("Figs 10+11: NMAP, high load", figs))
	return nil
}

func runFig1213(h *experiments.Harness, q experiments.Quality) error {
	cells, err := h.Fig12And13(q)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderMatrix("Figs 12+13: P99 and energy across governors and sleep policies",
		cells, "performance"))
	return nil
}

func runFig1415(h *experiments.Harness, q experiments.Quality) error {
	cells, err := h.Fig14And15(q)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderMatrix("Figs 14+15: comparison with state-of-the-art (energy vs performance)",
		cells, "performance"))
	return nil
}

// parseInjection parses the -faults/-rto/-retries flags into the fault
// and retry configuration every experiment cell inherits.
func parseInjection() (faults.Config, workload.RetryConfig, error) {
	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		return fcfg, workload.RetryConfig{}, err
	}
	var rcfg workload.RetryConfig
	if *rto > 0 {
		rcfg = workload.RetryConfig{
			Timeout:    sim.Duration(rto.Nanoseconds()),
			MaxRetries: *retries,
		}
	} else if *retries != 0 {
		return fcfg, rcfg, fmt.Errorf("-retries needs -rto to enable the retry loop")
	}
	return fcfg, rcfg, rcfg.Validate()
}

// printAuditReport dumps the per-rule audit tally accumulated across
// every cell of the run, when -audit-report asked for it.
func printAuditReport(h *experiments.Harness) {
	if !*auditReport {
		return
	}
	if rep := h.AuditReport(); rep != nil {
		fmt.Print(rep)
	}
}

func main() {
	flag.Parse()
	if err := validateFlags(simFlags{parallel: *parallel, cellTimeout: *cellTimeout}); err != nil {
		fmt.Fprintf(os.Stderr, "nmapsim: %v\n", err)
		os.Exit(2)
	}
	h := &experiments.Harness{
		Parallel:   *parallel,
		Audit:      *auditOn || *auditReport,
		RunTimeout: *cellTimeout,
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "nmapsim: %v\n", err)
		printAuditReport(h) // os.Exit skips defers; a violation report still matters
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprofile)
	defer printAuditReport(h)
	var err error
	if h.Faults, h.Retry, err = parseInjection(); err != nil {
		fail(err)
	}
	if *list || flag.NArg() == 0 {
		fmt.Println("available experiments:")
		for _, e := range catalog {
			fmt.Printf("  %-22s %s\n", e.name, e.desc)
		}
		fmt.Printf("  %-22s run every experiment in sequence\n", "all")
		if flag.NArg() == 0 && !*list {
			os.Exit(2)
		}
		return
	}
	name := flag.Arg(0)
	if name == "all" {
		seen := map[string]bool{}
		for _, e := range catalog {
			// fig3/fig4 (etc.) share a runner; run shared ones once.
			key := fmt.Sprintf("%p", e.run)
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := e.run(h, q2()); err != nil {
				fail(err)
			}
		}
		return
	}
	for _, e := range catalog {
		if e.name == name {
			if err := e.run(h, q2()); err != nil {
				fail(err)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "nmapsim: unknown experiment %q (try -list)\n", name)
	os.Exit(2)
}

// writeMemProfile snapshots the allocs profile at exit (deferred from
// main, so every normal completion path is covered).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapsim: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "nmapsim: %v\n", err)
	}
}
