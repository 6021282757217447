package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// TestRunSpecsPartialResultsOnError puts a bad spec in the middle of a
// sweep: the good cells must still run and come back checkpointed, and
// the returned error must be the bad cell's (first in input order).
func TestRunSpecsPartialResultsOnError(t *testing.T) {
	specs := []Spec{
		{Policy: "performance", Idle: "menu", Cfg: quickCfg()},
		{Policy: "no-such-policy", Idle: "menu", Cfg: quickCfg()},
		{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()},
	}
	cells, err := (&Harness{Parallel: 2}).RunSpecs(context.Background(), specs)
	if err == nil {
		t.Fatal("sweep with a bad spec returned no error")
	}
	if !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("error %v does not name the bad policy", err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	if !cells[0].Done || !cells[2].Done {
		t.Fatalf("good cells not checkpointed: %+v %+v", cells[0].Err, cells[2].Err)
	}
	if cells[0].Result.Completed == 0 || cells[2].Result.Completed == 0 {
		t.Fatal("checkpointed cells carry empty results")
	}
	if cells[1].Done || cells[1].Err == nil {
		t.Fatal("bad cell not marked failed")
	}
}

// TestRunSpecsCtxCanceledSkipsCells cancels before the sweep starts: no
// cell runs, every cell records the cancellation, and the sweep returns
// promptly with ctx.Err().
func TestRunSpecsCtxCanceledSkipsCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []Spec{
		{Policy: "performance", Idle: "menu", Cfg: quickCfg()},
		{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()},
	}
	start := time.Now()
	cells, err := new(Harness).RunSpecs(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("canceled sweep did not return promptly")
	}
	for i, c := range cells {
		if c.Done || !errors.Is(c.Err, context.Canceled) {
			t.Fatalf("cell %d ran despite cancellation: %+v", i, c)
		}
	}
}

// TestRunSpecsCtxCancelMidSweep cancels while cells are in flight: the
// in-flight cell aborts at its next simulated millisecond instead of
// running to completion, and already-finished cells stay checkpointed.
func TestRunSpecsCtxCancelMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-sweep cancellation is wall-clock dependent")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	// Enough serial work that the cancel lands mid-sweep: the calendar
	// queue runs a quickCfg cell in a handful of wall milliseconds, so
	// the sweep needs both more and longer cells to reliably outlast
	// the 50ms cancel delay.
	specs := make([]Spec, 16)
	for i := range specs {
		cfg := quickCfg()
		cfg.Duration = 400 * sim.Millisecond
		specs[i] = Spec{Policy: "ondemand", Idle: "menu", Cfg: cfg}
	}
	cells, err := (&Harness{Parallel: 1}).RunSpecs(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var done, failed int
	for _, c := range cells {
		if c.Done {
			done++
		} else if c.Err != nil {
			failed++
		}
	}
	if done+failed != len(specs) {
		t.Fatalf("cells unaccounted for: %d done + %d failed of %d", done, failed, len(specs))
	}
	if failed == 0 {
		t.Fatal("cancellation arrived after the whole sweep finished — nothing was cut short")
	}
}

// TestRunTimeoutAbortsCell pins the per-cell wall-clock budget: an
// absurdly small budget must abort the cell with a diagnostic naming
// the budget, not hang or panic. An overrun is the one failure of a
// cell's own that a re-run can change, so each of CellRetries re-runs
// happens.
func TestRunTimeoutAbortsCell(t *testing.T) {
	h := &Harness{RunTimeout: time.Nanosecond, CellRetries: 2}
	out := h.runCellAttempts(context.Background(), cell{spec: Spec{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()}})
	err := out.Err
	if err == nil {
		t.Fatal("1ns budget did not abort the cell")
	}
	if !strings.Contains(err.Error(), "wall-clock budget") {
		t.Fatalf("error %v does not name the budget", err)
	}
	if out.Attempts != 3 {
		t.Fatalf("overrunning cell ran %d attempt(s), want 3", out.Attempts)
	}
}

// TestInjectionDefaultsFlowIntoBuild runs a spec that carries no
// injection under a harness that does (the CLI -faults path): the cell
// picks the harness faults and retries up, while Build itself stays pure
// and the zero harness keeps clean physics.
func TestInjectionDefaultsFlowIntoBuild(t *testing.T) {
	spec := Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()}
	h := &Harness{Faults: faults.Config{WireLossProb: 0.05}, Retry: workload.RetryConfig{Timeout: 2 * sim.Millisecond}}
	res, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.WireDrops == 0 {
		t.Fatal("the harness fault config did not reach the cell")
	}
	if res.Reqs.Retransmits == 0 {
		t.Fatal("the harness retry config did not reach the cell")
	}
	if !res.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: %+v", res.Reqs)
	}

	if s, err := Build(spec); err != nil || s.Cfg.Faults.Enabled() || s.Cfg.Retry.Enabled() {
		t.Fatalf("Build folded in harness conditions: err=%v faults=%+v", err, s.Cfg.Faults)
	}
	clean, err := new(Harness).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults != (faults.Stats{}) || clean.Reqs.Retransmits != 0 {
		t.Fatalf("the zero harness injected faults: %+v", clean.Faults)
	}
}

// TestProfilingIgnoresRunBudget: a cell's wall-clock budget must not
// reach the §4.2 threshold profiling its build triggers. The profile is
// renamed so its thresholds are not cached yet; the budget aborts the
// cell itself, and the thresholds it cached must equal an unbudgeted
// profile of the same workload.
func TestProfilingIgnoresRunBudget(t *testing.T) {
	prof := workload.Memcached()
	prof.Name = "memcached-budget-probe"
	cfg := quickCfg()
	cfg.Profile = prof
	h := &Harness{RunTimeout: time.Nanosecond}
	if _, err := h.Run(Spec{Policy: "nmap", Idle: "menu", Cfg: cfg}); err == nil ||
		!strings.Contains(err.Error(), "wall-clock budget") {
		t.Fatalf("err = %v, want the cell's own budget error", err)
	}
	ref := workload.Memcached()
	ref.Name = "memcached-budget-ref"
	seed := 1000 + cfg.Seed%4
	if got, want := ProfiledThresholds(prof, seed), ProfiledThresholds(ref, seed); got != want {
		t.Fatalf("budgeted cell cached thresholds %+v, the unbudgeted profile is %+v", got, want)
	}
}

// TestWatchdogSurfacesThroughSweep runs a sweep whose one cell trips
// the engine watchdog: the sweep returns the watchdog error and the
// cell is marked failed, with no panic anywhere on the path. The abort
// is a pure function of the spec, so a re-run would repeat it: the cell
// ends on its first attempt, at once, whatever the retry budget.
func TestWatchdogSurfacesThroughSweep(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxEvents = 10_000
	start := time.Now()
	cells, err := (&Harness{CellRetries: 3}).RunSpecs(context.Background(), []Spec{
		{Policy: "performance", Idle: "menu", Cfg: cfg},
	})
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if cells[0].Done {
		t.Fatal("watchdog-tripped cell marked done")
	}
	if cells[0].Attempts != 1 {
		t.Fatalf("watchdog cell ran %d attempt(s), want 1", cells[0].Attempts)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("watchdog cell took %v", d)
	}
}
