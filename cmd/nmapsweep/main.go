// Command nmapsweep generates latency-load curves: P99 response time and
// package energy as the offered load sweeps from a fraction of the low
// level to beyond the high level, for any policy/idle combination. This
// is the tool used to locate the latency-load inflection points that set
// the SLOs (§3.1 methodology).
//
// Usage:
//
//	nmapsweep [-app memcached|nginx] [-policy NAME] [-idle NAME]
//	          [-points N] [-dur MS] [-stream] [-checkpoint FILE] [-fsck]
//	          [-cell-retries N] [-cell-retry-backoff DUR] [-cell-deadline DUR]
//	          [-quarantine] [-mem-budget-mb N]
//
// Exit codes:
//
//	0  sweep (or -fsck scan) completed cleanly
//	1  hard failure: a cell error without -quarantine, an I/O error, or
//	   a damaged journal under -fsck
//	2  usage error (bad flag values, unknown app)
//	3  the sweep itself completed, but -quarantine left at least one
//	   cell quarantined: its rows are rendered (marked QUARANTINED) and
//	   the partial curve is usable, yet the table has holes. Automation
//	   must not mistake that for a clean run — resume with -checkpoint
//	   to retry the quarantined cells.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/report"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// sweepFlags is every numeric knob the CLI validates before running;
// the validation is a standalone function so the error paths are
// table-testable.
type sweepFlags struct {
	points, durMS, parallel int
	cellRetries             int
	cellBackoff             time.Duration
	cellDeadline            time.Duration
	memBudgetMB             int
}

// validateFlags rejects nonsensical flag values with errors naming the
// flag, before any work starts.
func validateFlags(f sweepFlags) error {
	if f.points <= 0 {
		return fmt.Errorf("-points must be positive, got %d", f.points)
	}
	if f.durMS <= 0 {
		return fmt.Errorf("-dur must be a positive millisecond count, got %d", f.durMS)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", f.parallel)
	}
	if f.cellRetries < 0 {
		return fmt.Errorf("-cell-retries must be >= 0, got %d", f.cellRetries)
	}
	if f.cellBackoff < 0 {
		return fmt.Errorf("-cell-retry-backoff must be >= 0, got %v", f.cellBackoff)
	}
	if f.cellDeadline < 0 {
		return fmt.Errorf("-cell-deadline must be >= 0, got %v", f.cellDeadline)
	}
	if f.memBudgetMB < 0 {
		return fmt.Errorf("-mem-budget-mb must be >= 0 (0 = unlimited), got %d", f.memBudgetMB)
	}
	return nil
}

func main() {
	app := flag.String("app", "memcached", "workload profile: memcached or nginx")
	policy := flag.String("policy", "performance", "power policy (see nmapsim -list)")
	idle := flag.String("idle", "menu", "idle policy: menu, disable, c6only")
	points := flag.Int("points", 8, "number of load points")
	durMS := flag.Int("dur", 500, "measured window per point, milliseconds")
	inflection := flag.Bool("inflection", false,
		"locate the latency-load knee (the paper's SLO-setting procedure) and exit")
	parallel := flag.Int("parallel", 0,
		"simulation cells in flight at once (0 = one per CPU, 1 = serial)")
	faultSpec := flag.String("faults", "",
		"fault-injection spec, e.g. loss=0.01,throttle=10/20ms@12,corecrash=1@250ms:100ms")
	auditOn := flag.Bool("audit", false,
		"run every point under the invariant auditor (fails the run on any violation)")
	streamOn := flag.Bool("stream", false,
		"record latencies into the bounded streaming histogram (fixed 64KB/cell, ~0.1% quantile error) instead of the exact sample recorder")
	checkpoint := flag.String("checkpoint", "",
		"journal completed sweep cells to FILE and resume from it: cells already journaled are not re-run")
	fsck := flag.Bool("fsck", false,
		"scan the -checkpoint journal for damage (torn lines, checksum failures, duplicated records), print a report, and exit: 0 clean, 1 damaged")
	cellRetries := flag.Int("cell-retries", 0,
		"re-run a failing sweep cell up to N times with exponential backoff before giving up (0 = fail fast)")
	cellBackoff := flag.Duration("cell-retry-backoff", time.Second,
		"delay before a failed cell's first retry; doubles per retry, capped at 10x")
	cellDeadline := flag.Duration("cell-deadline", 0,
		"wall-clock budget across all attempts of one cell, backoff included (0 = none)")
	quarantine := flag.Bool("quarantine", false,
		"quarantine cells that exhaust their retries — report them explicitly and keep sweeping — instead of failing the whole sweep")
	memBudgetMB := flag.Int("mem-budget-mb", 0,
		"soft memory watermark in MB: cells whose projected exact-histogram footprint (x workers) would cross it record into the bounded streaming histogram instead, explicitly marked (0 = unlimited)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "nmapsweep: %v\n", err)
		os.Exit(1)
	}
	if err := validateFlags(sweepFlags{
		points: *points, durMS: *durMS, parallel: *parallel,
		cellRetries: *cellRetries, cellBackoff: *cellBackoff,
		cellDeadline: *cellDeadline, memBudgetMB: *memBudgetMB,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "nmapsweep: %v\n", err)
		os.Exit(2)
	}

	if *fsck {
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "nmapsweep: -fsck requires -checkpoint FILE")
			os.Exit(2)
		}
		rep, err := experiments.FsckJournal(*checkpoint)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
		if !rep.Clean() {
			os.Exit(1)
		}
		return
	}

	experiments.SetParallelism(*parallel)
	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapsweep: %v\n", err)
		os.Exit(2)
	}
	experiments.SetInjection(fcfg, workload.RetryConfig{})
	experiments.SetAudit(*auditOn)
	experiments.SetStreaming(*streamOn)
	if err := experiments.SetCellRetry(experiments.HarnessRetry{
		MaxRetries: *cellRetries,
		Backoff:    *cellBackoff,
		Deadline:   *cellDeadline,
		Quarantine: *quarantine,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "nmapsweep: %v\n", err)
		os.Exit(2)
	}
	experiments.SetMemoryBudget(int64(*memBudgetMB) << 20)
	if *checkpoint != "" {
		j, err := experiments.OpenJournal(*checkpoint)
		if err != nil {
			fail(err)
		}
		if rep := j.LoadReport(); !rep.Clean() {
			fmt.Fprintf(os.Stderr, "nmapsweep: journal damage skipped on load (run -fsck for detail): torn=%d blank=%d no-payload=%d bad-crc=%d dup-seq=%d\n",
				rep.Torn+boolInt(rep.TornTail), rep.Blank, rep.NoPayload, rep.BadCRC, rep.DupSeq)
		}
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "nmapsweep: resuming, %d cell(s) already journaled in %s\n", n, *checkpoint)
		}
		defer j.Close()
		experiments.SetJournal(j)
	}

	prof, ok := workload.ProfileByName(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "nmapsweep: unknown app %q\n", *app)
		os.Exit(2)
	}

	if *inflection {
		inf, err := experiments.FindInflection(prof, prof.HighRPS/8, prof.HighRPS*1.2, *points, 5, experiments.Full)
		if err != nil {
			fail(err)
		}
		fmt.Printf("latency-load curve (%s, performance governor):\n", prof.Name)
		for _, pt := range inf.Curve {
			fmt.Printf("  %8.0fK RPS  p99=%8.3fms\n", pt.RPS/1000, pt.P99.Millis())
		}
		fmt.Printf("inflection: %.0fK RPS, p99=%.3fms -> SLO candidate %.3fms\n",
			inf.RPS/1000, inf.P99.Millis(), inf.P99.Millis())
		return
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
	cells, err := experiments.RunSpecsCtx(ctx, specs)
	if err != nil {
		fail(err)
	}
	quarantined, downgraded := 0, 0
	for i, c := range cells {
		rps := specs[i].Cfg.RPS
		if c.Quarantined {
			// Quarantined cells are part of the report, never silently
			// dropped: the row names the cell and why it kept failing.
			quarantined++
			t.Row(fmt.Sprintf("%.0fK", rps/1000),
				"QUARANTINED", fmt.Sprintf("after %d attempt(s)", c.Attempts),
				"-", "-", truncateErr(c.Err))
			continue
		}
		if c.Downgraded {
			downgraded++
		}
		res := c.Result
		t.Row(fmt.Sprintf("%.0fK", rps/1000),
			fmt.Sprintf("%.3fms", res.Summary.P50.Millis()),
			fmt.Sprintf("%.3fms", res.Summary.P99.Millis()),
			fmt.Sprintf("%.2f", float64(res.Summary.P99)/float64(prof.SLO)),
			fmt.Sprintf("%.1f", res.EnergyJ),
			fmt.Sprintf("%.1f", res.AvgPowerW))
	}
	fmt.Println(t.String())
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "nmapsweep: %d cell(s) quarantined (rows marked QUARANTINED above); a -checkpoint resume will retry them\n", quarantined)
	}
	if downgraded > 0 {
		fmt.Fprintf(os.Stderr, "nmapsweep: %d cell(s) downgraded to the streaming histogram by -mem-budget-mb (quantiles within ~0.1%%)\n", downgraded)
	}
	if code := quarantineExitCode(quarantined); code != 0 {
		// Journal records are fsynced as they are written, so skipping
		// the deferred Close here loses nothing.
		os.Exit(code)
	}
}

// quarantineExitCode maps the quarantined-cell count to the process
// exit code: 0 when every cell completed, 3 when the sweep finished but
// holes remain. 3 is deliberately distinct from 1 (hard failure) and 2
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

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
