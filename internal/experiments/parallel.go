package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nmapsim/internal/cluster"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
)

// The harness fans independent simulation cells out over a bounded worker
// pool. Every cell owns its engine and seeded PRNG, and results are
// collected by index, so the output is byte-for-byte identical to a
// serial run regardless of the worker count (see docs/MODEL.md,
// "Performance & determinism").

var (
	parMu sync.RWMutex
	// par is the configured fan-out; 0 means "one worker per CPU"
	// (runtime.GOMAXPROCS(0)), resolved at use time.
	par int
)

// SetParallelism bounds the harness worker pool to n simulation cells in
// flight at once. n <= 0 restores the default, one worker per CPU. Safe
// to call concurrently with running sweeps; in-flight sweeps keep the
// fan-out they started with.
func SetParallelism(n int) {
	parMu.Lock()
	if n < 0 {
		n = 0
	}
	par = n
	parMu.Unlock()
}

// Parallelism returns the effective worker-pool size.
func Parallelism() int {
	parMu.RLock()
	n := par
	parMu.RUnlock()
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// forEach runs fn(0) … fn(n-1) on the worker pool and returns when all
// calls have finished. Callers write results into index i of a pre-sized
// slice, which preserves the deterministic serial order. A panic in any
// fn is re-raised on the calling goroutine once the pool has drained,
// matching the serial behaviour.
func forEach(n int, fn func(i int)) {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

var runTimeout atomic.Int64 // per-cell wall-clock budget in ns; 0 = none

// SetRunTimeout bounds the wall-clock time of each simulation cell: a
// cell exceeding d is aborted through the engine and surfaces as that
// cell's error instead of hanging the sweep. d <= 0 removes the bound.
func SetRunTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	runTimeout.Store(int64(d))
}

// RunTimeout returns the per-cell wall-clock budget (0 = none).
func RunTimeout() time.Duration { return time.Duration(runTimeout.Load()) }

// cell is one simulation of the harness: a single server built from
// spec, or — with fleet set — a cluster whose every node is spec.Policy
// over spec.Idle, built from spec.Cfg as the node template (fleet.Node is
// ignored). observe / observeFleet attach a figure's observers to the
// built server or cluster before it runs; an observed cell or a fleet
// cell is never served from the checkpoint journal.
type cell struct {
	spec         Spec
	fleet        *cluster.Config
	observe      func(*server.Server)
	observeFleet func(*cluster.Cluster)
}

// journaled reports whether the checkpoint journal may serve and record
// the cell: only a plain single-server run is a pure function of its
// spec.
func (c cell) journaled() bool {
	return c.fleet == nil && c.observe == nil
}

// specCells wraps plain specs as cells.
func specCells(specs []Spec) []cell {
	cells := make([]cell, len(specs))
	for i, s := range specs {
		cells[i] = cell{spec: s}
	}
	return cells
}

// runCell is the one run path every simulation of the harness takes:
// build the server (or the fleet, every node through BuildOn on one
// engine), attach the cell's observers, guard the run with ctx and the
// per-cell wall-clock budget, run it, and merge its audit report into
// the package tally. permanent reports an assembly/validation failure,
// which is deterministic, so retrying the identical cell cannot fix it.
func runCell(ctx context.Context, c cell) (out CellResult, permanent bool) {
	if c.fleet == nil {
		s, err := Build(c.spec)
		if err != nil {
			return CellResult{Err: err}, true
		}
		if c.observe != nil {
			c.observe(s)
		}
		guard(ctx, s.Eng)
		out.Result, out.Err = s.Run()
		recordAudit(out.Result.Audit)
	} else {
		ccfg := *c.fleet
		ccfg.Node = c.spec.Cfg
		cl, err := cluster.New(ccfg, func(_ int, ncfg server.Config, eng *sim.Engine) (*server.Server, error) {
			spec := c.spec
			spec.Cfg = ncfg
			return BuildOn(spec, eng)
		})
		if err != nil {
			return CellResult{Err: err}, true
		}
		if c.observeFleet != nil {
			c.observeFleet(cl)
		}
		guard(ctx, cl.Eng)
		out.Fleet, out.Err = cl.Run(ctx)
		recordAudit(out.Fleet.Audit)
	}
	out.Done = out.Err == nil
	return out, false
}

// runCellAttempts drives one cell through the installed HarnessRetry
// policy: failed attempts are re-run with exponential backoff until the
// attempt budget, the per-cell deadline, or the sweep context gives
// out. It returns the last attempt's (possibly partial) result with
// Attempts set. With the zero policy this is exactly one attempt — the
// seed behaviour.
func runCellAttempts(ctx context.Context, c cell) CellResult {
	pol := CellRetry()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		var out CellResult
		permanent := false
		if f := CellFault(); f != nil {
			if ferr := f(c.spec, attempt); ferr != nil {
				out.Err = fmt.Errorf("experiments: injected harness fault on attempt %d: %w", attempt, ferr)
			}
		}
		if out.Err == nil {
			out, permanent = runCell(ctx, c)
		}
		out.Attempts = attempt
		if out.Err == nil || permanent || (ctx != nil && ctx.Err() != nil) {
			return out
		}
		if attempt > pol.MaxRetries {
			if pol.MaxRetries > 0 {
				out.Err = fmt.Errorf("experiments: cell failed after %d attempt(s): %w", attempt, out.Err)
			}
			return out
		}
		delay := pol.Delay(attempt)
		if pol.Deadline > 0 && time.Since(start)+delay > pol.Deadline {
			out.Err = fmt.Errorf("experiments: cell deadline %v exhausted after %d attempt(s): %w",
				pol.Deadline, attempt, out.Err)
			return out
		}
		if delay > 0 {
			if ctx != nil && ctx.Done() != nil {
				t := time.NewTimer(delay)
				select {
				case <-ctx.Done():
					t.Stop()
					return out
				case <-t.C:
				}
			} else {
				time.Sleep(delay)
			}
		}
	}
}

// guard attaches the harness guard ticker to a built run's engine: the
// context and the per-cell wall-clock budget are checked from inside
// the engine (a simulated-millisecond ticker on the cell's own
// goroutine, so there is no cross-goroutine engine access), and either
// aborts the run with a diagnostic. The ticker draws no randomness and
// touches no model state, so an unguarded cell and a guarded one
// produce byte-identical physics.
func guard(ctx context.Context, eng *sim.Engine) {
	budget := RunTimeout()
	cancellable := ctx != nil && ctx.Done() != nil
	if !cancellable && budget <= 0 {
		return
	}
	start := time.Now()
	eng.Ticker(sim.Millisecond, func() {
		if ctx != nil && ctx.Err() != nil {
			eng.Abort(fmt.Errorf("experiments: run canceled at %v: %w", eng.Now(), ctx.Err()))
			return
		}
		if budget > 0 && time.Since(start) > budget {
			eng.Abort(fmt.Errorf("experiments: run exceeded the %v wall-clock budget at %v", budget, eng.Now()))
		}
	})
}

// CellResult is one cell of a harness run.
type CellResult struct {
	// Result is a single-server cell's outcome — partial if Err is
	// non-nil, zero if the cell never started (Done false).
	Result server.Result
	// Fleet is a fleet cell's outcome, with the same partial/zero rules.
	Fleet cluster.Result
	// Err is why the cell failed (assembly error, watchdog, timeout, or
	// cancellation); nil for a clean run.
	Err error
	// Done reports whether the cell ran to completion.
	Done bool
	// Attempts counts how many times the cell ran under the HarnessRetry
	// policy (1 for a first-try success, 0 for a journal-served cell or
	// one the context cut off before it started).
	Attempts int
	// Quarantined marks a cell that exhausted its retry budget under a
	// Quarantine policy: the sweep carried on without it, and Err holds
	// why it kept failing. Quarantined cells are reported, never
	// silently skipped, and never journaled — a resume retries them.
	Quarantined bool
	// Downgraded marks a cell the memory watermark switched from the
	// exact sample recorder to the bounded streaming histogram before it
	// ran (see SetMemoryBudget); Result.Hist carries the streaming
	// marker through the journal.
	Downgraded bool
}

// RunSpecsCtx runs every spec as a plain cell on the worker pool (see
// runCells).
func RunSpecsCtx(ctx context.Context, specs []Spec) ([]CellResult, error) {
	return runCells(ctx, specCells(specs))
}

// runCells runs every cell on the worker pool with checkpointing and
// self-healing: every cell's outcome is recorded in input order even
// when some fail, so a failed or canceled run keeps the cells that did
// finish. Failed cells are retried under the installed HarnessRetry
// policy, and with Quarantine set an exhausted cell is quarantined
// (reported in its CellResult) instead of sinking the run. Once ctx is
// canceled no new cell starts (in-flight cells abort at their next
// simulated millisecond). The returned error is the first
// non-quarantined cell error in input order, ctx.Err() if the run was
// cut short, or the journal's write error (wrapping ErrJournalWrite) if
// results computed fine but stopped persisting — the partial results
// are returned either way.
func runCells(ctx context.Context, cells []cell) ([]CellResult, error) {
	outs := make([]CellResult, len(cells))
	forEach(len(cells), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			outs[i].Err = ctx.Err()
			return
		}
		// With a checkpoint journal installed, completed plain cells are
		// served from the journal (each is a deterministic seeded run, so
		// the journaled result is byte-identical to recomputing it) and
		// fresh completions are journaled for the next resume. The key is
		// always the *requested* spec: a budget-downgraded cell journals
		// under the hash of what was asked for, and its stored histogram
		// self-describes the downgrade.
		var j *Journal
		var hash string
		if cells[i].journaled() {
			j = ActiveJournal()
		}
		if j != nil {
			hash = SpecHash(cells[i].spec)
			if res, ok := j.Lookup(hash); ok {
				recordAudit(res.Audit)
				outs[i] = CellResult{Result: res, Done: true}
				return
			}
		}
		c := cells[i]
		downgraded := downgradeForBudget(&c.spec)
		outs[i] = runCellAttempts(ctx, c)
		outs[i].Downgraded = downgraded
		if outs[i].Err != nil {
			if CellRetry().Quarantine && (ctx == nil || ctx.Err() == nil) {
				outs[i].Quarantined = true
			}
			return
		}
		if j != nil {
			// A failed checkpoint write is not a cell failure: the result
			// in hand is valid and returned. The journal turns read-only
			// on its first write error and the run surfaces it once at
			// the end, so it checkpoints what it can and exits cleanly
			// instead of failing every remaining cell.
			j.Record(hash, outs[i].Result)
		}
	})
	if ctx != nil && ctx.Err() != nil {
		return outs, ctx.Err()
	}
	for _, c := range outs {
		if c.Err != nil && !c.Quarantined {
			return outs, c.Err
		}
	}
	if j := ActiveJournal(); j != nil {
		if werr := j.WriteErr(); werr != nil {
			return outs, werr
		}
	}
	return outs, nil
}

// runRows runs a figure's cells on the worker pool and reads each
// finished cell into its row, in input order.
func runRows[T any](cells []cell, read func(i int, c CellResult) T) ([]T, error) {
	outs, err := runCells(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	rows := make([]T, len(outs))
	for i, c := range outs {
		rows[i] = read(i, c)
	}
	return rows, nil
}

// RunSpecs runs every spec on the worker pool and returns the results
// in input order. On error the completed cells are still returned
// (failed or never-started cells hold the zero Result) alongside the
// first error in input order.
func RunSpecs(specs []Spec) ([]server.Result, error) {
	cells, err := RunSpecsCtx(context.Background(), specs)
	results := make([]server.Result, len(cells))
	for i, c := range cells {
		results[i] = c.Result
	}
	return results, err
}
