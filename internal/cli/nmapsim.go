package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"nmapsim/internal/cluster"
	"nmapsim/internal/experiments"
)

// Sim is the nmapsim command: one sub-command per table and figure of
// the paper's evaluation, plus the ablations (see cmd/nmapsim).
func Sim(args []string, stdout, stderr io.Writer) int {
	c := command{"nmapsim", stdout, stderr}
	fs := c.flagSet()
	quick := fs.Bool("quick", false, "use short measurement windows (smoke-test quality)")
	list := fs.Bool("list", false, "list available experiments")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to FILE")
	memprofile := fs.String("memprofile", "", "write a heap (allocs) profile at exit to FILE")
	nodes := fs.Int("nodes", 4, "fig-cluster: number of NMAP nodes in the fleet")
	route := fs.String("route", "rr", "fig-cluster: routing policy — rr, least, weighted, flow")
	hedge := fs.Bool("hedge", false, "fig-cluster: arm tail-latency request hedging at the front end")
	hf := registerHarnessFlags(fs, map[string]string{
		"parallel":     "",
		"faults":       "fault-injection spec, e.g. loss=0.01,irqloss=0.001,irqjitter=5us,dmajitter=200ns,throttle=10/20ms@12",
		"rto":          "",
		"retries":      "",
		"cell-timeout": "",
		"audit":        "run every simulation under the invariant auditor (fails the run on any violation)",
		"audit-report": "with -audit: print the per-rule check/violation summary after the run",
	})
	if code, done := parse(fs, args); done {
		return code
	}
	h, err := hf.harness()
	if err != nil {
		return c.exit(2, err)
	}
	if err := cluster.CheckShape(*nodes, *route); err != nil {
		return c.exit(2, fmt.Errorf("-nodes %d -route %q: %w", *nodes, *route, err))
	}
	stopProfiles, err := c.startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return c.exit(1, err)
	}
	defer stopProfiles()
	defer hf.reportAudit(c, h)

	if *list || fs.NArg() == 0 {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range catalog {
			fmt.Fprintf(stdout, "  %-22s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(stdout, "  %-22s run every experiment in sequence\n", "all")
		if !*list {
			return 2
		}
		return 0
	}
	var runs []experiment
	if name := fs.Arg(0); name == "all" {
		seen := map[string]bool{}
		for _, e := range catalog {
			// fig3/fig4 (etc.) share a runner; run shared ones once.
			key := fmt.Sprintf("%p", e.run)
			if !seen[key] {
				seen[key] = true
				runs = append(runs, e)
			}
		}
	} else {
		for _, e := range catalog {
			if e.name == name {
				runs = append(runs, e)
			}
		}
		if runs == nil {
			return c.exit(2, fmt.Errorf("unknown experiment %q (try -list)", name))
		}
	}
	q := experiments.Full
	if *quick {
		q = experiments.Quick
	}
	r := simRun{h: h, q: q, w: stdout, nodes: *nodes, route: *route, hedge: *hedge}
	for _, e := range runs {
		if err := e.run(r); err != nil {
			return c.exit(1, err)
		}
	}
	return 0
}

// simRun is what one nmapsim experiment runs under and prints to.
type simRun struct {
	h     *experiments.Harness
	q     experiments.Quality
	w     io.Writer
	nodes int
	route string
	hedge bool
}

type experiment struct {
	name, desc string
	run        func(r simRun) error
}

var catalog = []experiment{
	{"table1", "re-transition latency, 4 CPUs x 6 transitions (10,000 reps)", func(r simRun) error {
		reps := 10000
		if r.q == experiments.Quick {
			reps = 500
		}
		fmt.Fprintln(r.w, experiments.RenderTable1(experiments.Table1(reps)))
		return nil
	}},
	{"table2", "C-state wake-up latency, 4 CPUs x 2 states (100 reps)", func(r simRun) error {
		fmt.Fprintln(r.w, experiments.RenderTable2(experiments.Table2(100)))
		return nil
	}},
	{"fig2", "NAPI mode split + ondemand P-state trace at high load", func(r simRun) error {
		figs, err := r.h.Fig2(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderTraceFigures("Fig 2: ondemand governor, high load", figs))
		return nil
	}},
	{"fig3", "per-request latency over 0.5s, ondemand vs performance", runFig34},
	{"fig4", "response-time CDFs, ondemand vs performance", runFig34},
	{"fig7", "CC6 entries and packet split under menu (low vs high load)", func(r simRun) error {
		figs, err := r.h.Fig7(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderTraceFigures("Fig 7: menu governor sleep behaviour (performance governor)", figs))
		return nil
	}},
	{"fig8", "latency-load curve + energy for menu/disable/c6only", func(r simRun) error {
		pts, err := r.h.Fig8(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderFig8(pts))
		return nil
	}},
	{"fig9", "NAPI mode split + NMAP P-state trace at high load", func(r simRun) error {
		figs, err := r.h.Fig9(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderTraceFigures("Fig 9: NMAP, high load", figs))
		return nil
	}},
	{"fig10", "per-request latency over 0.5s under NMAP", runFig1011},
	{"fig11", "response-time CDFs under NMAP", runFig1011},
	{"fig12", "P99 matrix: 5 V/F policies x 3 sleep policies x 3 loads x 2 apps", runFig1213},
	{"fig13", "energy matrix for the same configurations", runFig1213},
	{"fig14", "P99 vs state-of-the-art (NCAP, NCAP-menu)", runFig1415},
	{"fig15", "energy vs state-of-the-art (NCAP, NCAP-menu)", runFig1415},
	{"fig16", "randomly switching load: NMAP vs Parties", func(r simRun) error {
		figs, err := r.h.Fig16(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderFig16(figs))
		return nil
	}},
	{"fig-resilience", "P99 + shed rate through a core crash and recovery", func(r simRun) error {
		fig, err := r.h.FigResilience(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderResilience(fig))
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
	{"ablation-microslo", "sleep states vs a 90µs SLO (the §8 outlook)", func(r simRun) error {
		cells, err := r.h.AblationMicroSLO(r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, "== Ablation: sleep states against a 90µs SLO (µs-scale service) ==")
		fmt.Fprintf(r.w, "%-14s %-9s %10s %9s %10s\n", "policy", "idle", "p99(µs)", "violated", "energy(J)")
		for _, c := range cells {
			fmt.Fprintf(r.w, "%-14s %-9s %10.1f %9v %10.1f\n",
				c.Policy, c.Idle, c.P99.Micros(), c.Violated, c.EnergyJ)
		}
		fmt.Fprintln(r.w)
		return nil
	}},
}

// runAblation adapts an ablation runner into a catalog entry that
// renders the table on success and surfaces the error otherwise.
func runAblation(title string, fn func(*experiments.Harness, experiments.Quality) ([]experiments.AblationCell, error)) func(simRun) error {
	return func(r simRun) error {
		cells, err := fn(r.h, r.q)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, experiments.RenderAblation(title, cells))
		return nil
	}
}

// runFigCluster runs the fleet experiment under an interruptible
// context: Ctrl-C / SIGTERM aborts the simulation at its next simulated
// millisecond, and whatever arms (and per-node results, in input order)
// are in hand are rendered before the non-zero exit.
func runFigCluster(r simRun) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fig, err := r.h.FigClusterCtx(ctx, r.q, r.nodes, r.route, r.hedge)
	if len(fig.Arms) > 0 {
		fmt.Fprintln(r.w, experiments.RenderCluster(fig))
	}
	return err
}

// runFigGrayFail runs the gray-failure experiment under the same
// interruptible context discipline as fig-cluster.
func runFigGrayFail(r simRun) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fig, err := r.h.FigGrayFailCtx(ctx, r.q, r.nodes, r.route)
	if len(fig.Arms) > 0 {
		fmt.Fprintln(r.w, experiments.RenderGrayFail(fig))
	}
	return err
}

func runFig34(r simRun) error {
	figs, err := r.h.Fig3And4(r.q)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.w, experiments.RenderLatencyFigures("Figs 3+4: ondemand vs performance, high load", figs))
	return nil
}

func runFig1011(r simRun) error {
	figs, err := r.h.Fig10And11(r.q)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.w, experiments.RenderLatencyFigures("Figs 10+11: NMAP, high load", figs))
	return nil
}

func runFig1213(r simRun) error {
	cells, err := r.h.Fig12And13(r.q)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.w, experiments.RenderMatrix("Figs 12+13: P99 and energy across governors and sleep policies",
		cells, "performance"))
	return nil
}

func runFig1415(r simRun) error {
	cells, err := r.h.Fig14And15(r.q)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.w, experiments.RenderMatrix("Figs 14+15: comparison with state-of-the-art (energy vs performance)",
		cells, "performance"))
	return nil
}
