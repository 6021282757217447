package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
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
		for _, f := range experiments.Figures() {
			for i, name := range f.Names {
				fmt.Fprintf(stdout, "  %-22s %s\n", name, f.Descs[i])
			}
		}
		fmt.Fprintf(stdout, "  %-22s run every experiment in sequence\n", "all")
		if !*list {
			return 2
		}
		return 0
	}
	runs := experiments.Figures()
	if name := fs.Arg(0); name != "all" {
		i := slices.IndexFunc(runs, func(f experiments.Figure) bool { return slices.Contains(f.Names, name) })
		if i < 0 {
			return c.exit(2, fmt.Errorf("unknown experiment %q (try -list)", name))
		}
		runs = runs[i : i+1]
	}
	// Parsing stops at the experiment name, so a flag or a second name
	// after it would be ignored.
	if fs.NArg() > 1 {
		return c.exit(2, fmt.Errorf("unexpected argument %q after %s: flags go before the experiment name", fs.Arg(1), fs.Arg(0)))
	}
	// A fleet flag that no entry about to run reads would be ignored.
	if name := firstSet(fs, func(name string) bool {
		return slices.Contains(fleetFlags, name) &&
			!slices.ContainsFunc(runs, func(f experiments.Figure) bool { return slices.Contains(f.Fleet, name) })
	}); name != "" {
		return c.exit(2, fmt.Errorf("-%s does not apply to %s", name, fs.Arg(0)))
	}
	q := experiments.Full
	if *quick {
		q = experiments.Quick
	}
	r := experiments.FigureRun{Harness: h, Quality: q, Nodes: *nodes, Route: *route, Hedge: *hedge}
	for _, f := range runs {
		if err := runFigure(f, r, stdout); err != nil {
			return c.exit(1, err)
		}
	}
	return 0
}

// fleetFlags are the flags that shape a fleet figure's run; an entry
// lists in Figure.Fleet the ones it reads.
var fleetFlags = []string{"nodes", "route", "hedge"}

// runFigure runs one catalog entry and prints its text. An entry whose
// run honours its context runs under one that Ctrl-C / SIGTERM cancels:
// the simulation aborts at its next simulated millisecond and what is in
// hand prints before the non-zero exit. Any other entry leaves the
// signals alone, so the first one ends the process.
func runFigure(f experiments.Figure, r experiments.FigureRun, w io.Writer) error {
	ctx := context.Background()
	if f.Cancels {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	text, err := f.Run(ctx, r)
	if text != "" {
		fmt.Fprintln(w, text)
	}
	return err
}
