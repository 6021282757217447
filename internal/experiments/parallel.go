package experiments

import (
	"context"
	"errors"
	"fmt"
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

// forEach runs fn(0) … fn(n-1) on a pool of workers goroutines and
// returns when all calls have finished. Callers write results into
// index i of a pre-sized slice, which preserves the deterministic serial
// order. A panic in any fn is re-raised on the calling goroutine once
// the pool has drained, matching the serial behaviour.
func forEach(workers, n int, fn func(i int)) {
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

// cell is one simulation of the harness: its spec (a single server, or
// a fleet when spec.Fleet is set) and a figure's observers, which
// observe / observeFleet attach to the built server or cluster before
// it runs. An observed cell or a fleet cell is never served from the
// checkpoint journal.
type cell struct {
	spec         Spec
	observe      func(*server.Server)
	observeFleet func(*cluster.Cluster)
}

// journaled reports whether the checkpoint journal may serve and record
// the cell: only a plain single-server run is a pure function of its
// spec.
func (c cell) journaled() bool {
	return c.spec.Fleet == nil && c.observe == nil
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
// fold h's defaults into the spec, build the server (or the fleet, every
// node through BuildOn on one engine), attach the cell's observers,
// guard the run with ctx and h's per-cell wall-clock budget, run it, and
// merge its audit report into h's tally.
func (h *Harness) runCell(ctx context.Context, c cell) (out CellResult) {
	spec := h.withDefaults(c.spec)
	if spec.Fleet == nil {
		s, err := Build(spec)
		if err != nil {
			return CellResult{Err: err}
		}
		if c.observe != nil {
			c.observe(s)
		}
		h.guard(ctx, s.Eng)
		out.Result, out.Err = s.Run()
		h.recordAudit(out.Result.Audit)
	} else {
		ccfg := *spec.Fleet
		ccfg.Node = spec.Cfg
		cl, err := cluster.New(ccfg, func(_ int, ncfg server.Config, eng *sim.Engine) (*server.Server, error) {
			node := spec
			node.Cfg = ncfg
			return BuildOn(node, eng)
		})
		if err != nil {
			return CellResult{Err: err}
		}
		if c.observeFleet != nil {
			c.observeFleet(cl)
		}
		h.guard(ctx, cl.Eng)
		out.Fleet, out.Err = cl.Run()
		h.recordAudit(out.Fleet.Audit)
	}
	out.Done = out.Err == nil
	return out
}

// runCellAttempts runs one cell, re-running it up to h.CellRetries
// times while an attempt fails in a way a re-run can change: it overran
// the wall-clock budget, or h.CellFault failed it. A cell is a pure
// function of its spec, so every other failure (an assembly error, a
// watchdog abort, an audit violation) would repeat byte for byte and
// ends the cell at once, as does cancellation. It returns the last
// attempt's (possibly partial) result with Attempts set.
func (h *Harness) runCellAttempts(ctx context.Context, c cell) CellResult {
	for attempt := 1; ; attempt++ {
		var out CellResult
		retriable := false
		if h.CellFault != nil {
			if ferr := h.CellFault(c.spec, attempt); ferr != nil {
				out.Err = fmt.Errorf("experiments: injected harness fault on attempt %d: %w", attempt, ferr)
				retriable = true
			}
		}
		if out.Err == nil {
			out = h.runCell(ctx, c)
			retriable = errors.Is(out.Err, errOverBudget)
		}
		out.Attempts = attempt
		if retriable && attempt <= h.CellRetries && (ctx == nil || ctx.Err() == nil) {
			continue
		}
		if retriable && attempt > 1 {
			out.Err = fmt.Errorf("experiments: cell failed after %d attempt(s): %w", attempt, out.Err)
		}
		return out
	}
}

// errOverBudget is wrapped by the abort of a cell that overran the
// harness's wall-clock budget: of a cell's own failures, the only one
// that depends on the host rather than on the spec.
var errOverBudget = errors.New("wall-clock budget")

// guard attaches the harness guard ticker to a built run's engine: the
// context and h's per-cell wall-clock budget are checked from inside
// the engine (a simulated-millisecond ticker on the cell's own
// goroutine, so there is no cross-goroutine engine access), and either
// aborts the run with a diagnostic. The ticker draws no randomness and
// touches no model state, so an unguarded cell and a guarded one
// produce byte-identical physics.
func (h *Harness) guard(ctx context.Context, eng *sim.Engine) {
	budget := h.RunTimeout
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
			eng.Abort(fmt.Errorf("experiments: run exceeded the %v %w at %v", budget, errOverBudget, eng.Now()))
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
	// Attempts counts how many times the cell ran (more than 1 only
	// after a retried budget overrun or injected fault, 0 for a
	// journal-served cell or one the context cut off before it started).
	Attempts int
	// Quarantined marks a cell that failed under Harness.Quarantine: the
	// sweep carried on without it, and Err holds why it failed. Quarantined cells are reported, never
	// silently skipped, and never journaled — a resume retries them.
	Quarantined bool
	// Downgraded marks a cell the memory watermark switched from the
	// exact sample recorder to the bounded streaming histogram before it
	// ran (see Harness.MemoryBudget); Result.Hist carries the streaming
	// marker through the journal.
	Downgraded bool
}

// RunSpecs runs every spec as a plain cell on the worker pool (see
// runCells).
func (h *Harness) RunSpecs(ctx context.Context, specs []Spec) ([]CellResult, error) {
	return h.runCells(ctx, specCells(specs))
}

// runCells runs every cell on h's worker pool with checkpointing and
// self-healing: every cell's outcome is recorded in input order even
// when some fail, so a failed or canceled run keeps the cells that did
// finish. A negative h.CellRetries fails the run before any cell starts.
// With h.Quarantine set a failed cell is quarantined (reported in its
// CellResult) instead of sinking the run. Once ctx is canceled no new cell starts
// (in-flight cells abort at their next simulated millisecond). The
// returned error is the first non-quarantined cell error in input order,
// ctx.Err() if the run was cut short, or the journal's write error
// (wrapping ErrJournalWrite) if results computed fine but stopped
// persisting — the partial results are returned either way.
func (h *Harness) runCells(ctx context.Context, cells []cell) ([]CellResult, error) {
	outs := make([]CellResult, len(cells))
	if h.CellRetries < 0 {
		return outs, fmt.Errorf("experiments: negative cell retry budget %d", h.CellRetries)
	}
	j := h.Journal
	forEach(h.workers(), len(cells), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			outs[i].Err = ctx.Err()
			return
		}
		// With a checkpoint journal set, completed plain cells are
		// served from the journal (each is a deterministic seeded run, so
		// the journaled result is byte-identical to recomputing it) and
		// fresh completions are journaled for the next resume. The key is
		// always the *requested* spec: a budget-downgraded cell journals
		// under the hash of what was asked for, and its stored histogram
		// self-describes the downgrade.
		var hash string
		if j != nil && cells[i].journaled() {
			hash = h.SpecHash(cells[i].spec)
			if res, ok := j.lookup(hash); ok {
				h.recordAudit(res.Audit)
				outs[i] = CellResult{Result: res, Done: true}
				return
			}
		}
		c := cells[i]
		downgraded := h.downgradeForBudget(&c.spec)
		outs[i] = h.runCellAttempts(ctx, c)
		outs[i].Downgraded = downgraded
		if outs[i].Err != nil {
			if h.Quarantine && (ctx == nil || ctx.Err() == nil) {
				outs[i].Quarantined = true
			}
			return
		}
		if hash != "" {
			// A failed checkpoint write is not a cell failure: the result
			// in hand is valid and returned. The journal turns read-only
			// on its first write error and the run surfaces it once at
			// the end, so it checkpoints what it can and exits cleanly
			// instead of failing every remaining cell.
			j.record(hash, outs[i].Result)
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
	if j != nil {
		if werr := j.writeErr(); werr != nil {
			return outs, werr
		}
	}
	return outs, nil
}

// runRows runs a figure's cells on h's worker pool and reads each
// finished cell into its row, in input order.
func runRows[T any](h *Harness, cells []cell, read func(i int, c CellResult) T) ([]T, error) {
	outs, err := h.runCells(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	rows := make([]T, len(outs))
	for i, c := range outs {
		rows[i] = read(i, c)
	}
	return rows, nil
}
