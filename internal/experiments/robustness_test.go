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
	withParallelism(t, 2, func() {
		specs := []Spec{
			{Policy: "performance", Idle: "menu", Cfg: quickCfg()},
			{Policy: "no-such-policy", Idle: "menu", Cfg: quickCfg()},
			{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()},
		}
		cells, err := RunSpecsCtx(context.Background(), specs)
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
	})
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
	cells, err := RunSpecsCtx(ctx, specs)
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
	withParallelism(t, 1, func() {
		cells, err := RunSpecsCtx(ctx, specs)
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
	})
}

// TestRunTimeoutAbortsCell pins the per-cell wall-clock budget: an
// absurdly small budget must abort the cell with a diagnostic naming
// the budget, not hang or panic.
func TestRunTimeoutAbortsCell(t *testing.T) {
	SetRunTimeout(time.Nanosecond)
	defer SetRunTimeout(0)
	out, _ := runCell(context.Background(), cell{spec: Spec{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()}})
	err := out.Err
	if err == nil {
		t.Fatal("1ns budget did not abort the cell")
	}
	if !strings.Contains(err.Error(), "wall-clock budget") {
		t.Fatalf("error %v does not name the budget", err)
	}
}

// TestInjectionDefaultsFlowIntoBuild installs package-default injection
// (the CLI -faults path) and checks a spec that carries none picks it
// up — and that clearing the default restores clean physics.
func TestInjectionDefaultsFlowIntoBuild(t *testing.T) {
	SetInjection(faults.Config{WireLossProb: 0.05}, workload.RetryConfig{Timeout: 2 * sim.Millisecond})
	defer SetInjection(faults.Config{}, workload.RetryConfig{})

	res, err := Run(Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.WireDrops == 0 {
		t.Fatal("package-default fault config was not applied by Build")
	}
	if res.Reqs.Retransmits == 0 {
		t.Fatal("package-default retry config was not applied by Build")
	}
	if !res.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: %+v", res.Reqs)
	}

	SetInjection(faults.Config{}, workload.RetryConfig{})
	clean, err := Run(Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults != (faults.Stats{}) || clean.Reqs.Retransmits != 0 {
		t.Fatalf("cleared injection still active: %+v", clean.Faults)
	}
}

// TestWatchdogSurfacesThroughSweep runs a sweep whose one cell trips
// the engine watchdog: the sweep returns the watchdog error and the
// cell is marked failed, with no panic anywhere on the path.
func TestWatchdogSurfacesThroughSweep(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxEvents = 10_000
	cells, err := RunSpecsCtx(context.Background(), []Spec{
		{Policy: "performance", Idle: "menu", Cfg: cfg},
	})
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if cells[0].Done {
		t.Fatal("watchdog-tripped cell marked done")
	}
}
