package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nmapsim/internal/experiments"
	"nmapsim/internal/report"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Sweep is the nmapsweep command: a latency-load curve for one
// policy/idle combination, or with -inflection its knee (see
// cmd/nmapsweep).
func Sweep(args []string, stdout, stderr io.Writer) int {
	c := command{"nmapsweep", stdout, stderr}
	fs := c.flagSet()
	app := fs.String("app", "memcached", "workload profile: memcached or nginx")
	policy := fs.String("policy", "performance", "power policy: "+strings.Join(experiments.PolicyNames, ", "))
	idle := fs.String("idle", "menu", "idle policy: menu, disable, c6only")
	points := fs.Int("points", 8, "number of load points")
	durMS := fs.Int("dur", 500, "measured window per point, milliseconds")
	inflection := fs.Bool("inflection", false,
		"locate the latency-load knee (the paper's SLO-setting procedure) and exit")
	fsck := fs.Bool("fsck", false,
		"scan the -checkpoint journal for damage (torn lines, checksum failures, duplicated records), print a report, and exit: 0 clean, 1 damaged")
	hf := registerHarnessFlags(fs, map[string]string{
		"parallel":           "",
		"faults":             "fault-injection spec, e.g. loss=0.01,throttle=10/20ms@12,corecrash=1@250ms:100ms",
		"audit":              "run every point under the invariant auditor (fails the run on any violation)",
		"stream":             "",
		"checkpoint":         "journal completed sweep cells to FILE and resume from it: cells already journaled are not re-run",
		"cell-retries":       "re-run a failing sweep cell up to N times with exponential backoff before giving up (0 = fail fast)",
		"cell-retry-backoff": "",
		"cell-deadline":      "",
		"quarantine":         "",
		"mem-budget-mb":      "",
	})
	if code, done := parse(fs, args); done {
		return code
	}
	if *points <= 0 {
		return c.exit(2, fmt.Errorf("-points must be positive, got %d", *points))
	}
	if *durMS <= 0 {
		return c.exit(2, fmt.Errorf("-dur must be a positive millisecond count, got %d", *durMS))
	}
	h, err := hf.harness()
	if err != nil {
		return c.exit(2, err)
	}

	if *fsck {
		if hf.checkpoint == "" {
			return c.exit(2, fmt.Errorf("-fsck requires -checkpoint FILE"))
		}
		rep, err := experiments.FsckJournal(hf.checkpoint)
		if err != nil {
			return c.exit(1, err)
		}
		fmt.Fprintln(stdout, rep)
		if !rep.Clean() {
			return 1
		}
		return 0
	}

	if *inflection {
		if *points < 2 {
			return c.exit(2, fmt.Errorf("-inflection needs -points >= 2 to find a knee, got %d", *points))
		}
		// The knee search fixes the governor, the idle policy and the
		// window; a flag that would set one of them is a usage error.
		var ignored string
		fs.Visit(func(f *flag.Flag) {
			if ignored == "" && (f.Name == "policy" || f.Name == "idle" || f.Name == "dur") {
				ignored = f.Name
			}
		})
		if ignored != "" {
			return c.exit(2, fmt.Errorf("-%s does not apply to -inflection (it sweeps the performance governor, menu idle, 1s per point)", ignored))
		}
	}
	if err := checkPolicies([]string{*policy}, *idle); err != nil {
		return c.exit(2, err)
	}
	prof, ok := workload.ProfileByName(*app)
	if !ok {
		return c.exit(2, fmt.Errorf("unknown app %q", *app))
	}
	if err := hf.openJournal(c, h); err != nil {
		return c.exit(1, err)
	}
	if h.Journal != nil {
		defer h.Journal.Close()
	}

	if *inflection {
		inf, err := h.FindInflection(prof, prof.HighRPS/8, prof.HighRPS*1.2, *points, experiments.Full)
		if err != nil {
			return c.exit(1, err)
		}
		fmt.Fprintf(stdout, "latency-load curve (%s, performance governor):\n", prof.Name)
		for _, pt := range inf.Curve {
			fmt.Fprintf(stdout, "  %8.0fK RPS  p99=%8.3fms\n", pt.RPS/1000, pt.P99.Millis())
		}
		fmt.Fprintf(stdout, "inflection: %.0fK RPS, p99=%.3fms -> SLO candidate %.3fms\n",
			inf.RPS/1000, inf.P99.Millis(), inf.P99.Millis())
		return 0
	}

	// An interrupt (Ctrl-C, SIGTERM) cancels the sweep cleanly: in-flight
	// cells abort at their next simulated millisecond, completed cells
	// are already fsynced in the journal, and no half-written record is
	// left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t := report.NewTable(
		fmt.Sprintf("latency-load sweep: %s, policy=%s idle=%s (SLO %.1fms)",
			prof.Name, *policy, *idle, prof.SLO.Millis()),
		"RPS", "p50", "p99", "p99/SLO", "energy(J)", "avg power(W)")
	specs := make([]experiments.Spec, *points)
	for i := range specs {
		rps := prof.HighRPS * float64(i+1) / float64(*points)
		specs[i] = experiments.Spec{
			Policy: *policy,
			Idle:   *idle,
			Cfg: server.Config{
				Seed:     42,
				Profile:  prof,
				RPS:      rps,
				Warmup:   200 * sim.Millisecond,
				Duration: sim.Duration(*durMS) * sim.Millisecond,
			},
		}
	}
	cells, err := h.RunSpecsCtx(ctx, specs)
	if err != nil {
		return c.exit(1, err)
	}
	quarantined, downgraded := 0, 0
	for i, cell := range cells {
		rps := specs[i].Cfg.RPS
		if cell.Quarantined {
			// Quarantined cells are part of the report, never silently
			// dropped: the row names the cell and why it kept failing.
			quarantined++
			t.Row(fmt.Sprintf("%.0fK", rps/1000),
				"QUARANTINED", fmt.Sprintf("after %d attempt(s)", cell.Attempts),
				"-", "-", truncateErr(cell.Err))
			continue
		}
		if cell.Downgraded {
			downgraded++
		}
		res := cell.Result
		t.Row(fmt.Sprintf("%.0fK", rps/1000),
			fmt.Sprintf("%.3fms", res.Summary.P50.Millis()),
			fmt.Sprintf("%.3fms", res.Summary.P99.Millis()),
			fmt.Sprintf("%.2f", float64(res.Summary.P99)/float64(prof.SLO)),
			fmt.Sprintf("%.1f", res.EnergyJ),
			fmt.Sprintf("%.1f", res.AvgPowerW))
	}
	fmt.Fprintln(stdout, t.String())
	if quarantined > 0 {
		c.warnf("%d cell(s) quarantined (rows marked QUARANTINED above); a -checkpoint resume will retry them", quarantined)
	}
	if downgraded > 0 {
		c.warnf("%d cell(s) downgraded to the streaming histogram by -mem-budget-mb (quantiles within ~0.1%%)", downgraded)
	}
	return quarantineExitCode(quarantined)
}

// quarantineExitCode maps the quarantined-cell count to the exit code:
// 0 when every cell completed, 3 when the sweep finished but holes
// remain. 3 is deliberately distinct from 1 (hard failure) and 2
// (usage) so scripts can branch on "partial but usable".
func quarantineExitCode(quarantined int) int {
	if quarantined > 0 {
		return 3
	}
	return 0
}

// truncateErr renders a cell error into one table cell.
func truncateErr(err error) string {
	s := err.Error()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
