package experiments

import (
	"runtime"
	"sync"
	"time"

	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/workload"
)

// Harness is the set of run conditions a figure, table or sweep runs
// under, written out as one value: every entry point that runs cells is
// a method on *Harness and reads its conditions from the receiver. The
// zero value is the default — one worker per CPU, no injected faults or
// retries, no auditor, exact histograms, no journal, fail-fast cells and
// no memory or wall-clock budget — so a catalog entry run on
// new(Harness) renders the plain figure. A Harness may run several
// sweeps, concurrently too, but must not be copied once used: it owns
// the audit tally of its runs.
type Harness struct {
	// Parallel bounds the worker pool to that many cells in flight at
	// once; 0 (or less) means one worker per CPU, 1 runs serially.
	// Results are collected by index, so the output is byte-identical at
	// any width.
	Parallel int
	// Faults and Retry are the fault-injection and client-retry
	// configuration (the CLIs' -faults/-rto flags) applied to every cell
	// whose spec carries none of its own.
	Faults faults.Config
	Retry  workload.RetryConfig
	// Audit runs every cell under the invariant auditor; each audited
	// run's report is merged into the tally AuditReport returns.
	Audit bool
	// Streaming records every cell's latencies into the bounded
	// streaming-quantile histogram (a fixed ~64KB per cell, within
	// stats.StreamRelError) instead of the exact sample recorder.
	Streaming bool
	// Journal, when set, serves completed plain cells without re-running
	// them and journals every plain cell that completes cleanly.
	Journal *Journal
	// CellRetries re-runs a cell up to that many times while its
	// attempts overrun RunTimeout or CellFault fails them, the only
	// failures a re-run can change (0 = none; negative fails the run).
	CellRetries int
	// Quarantine keeps the run going past a failed cell: the cell is
	// marked Quarantined in its CellResult (and rendered explicitly by
	// nmapsweep) instead of failing the run. A quarantined cell is never
	// journaled, so a resume runs it again.
	Quarantine bool
	// CellFault, when set, is consulted at the start of every cell
	// attempt: a non-nil return fails that attempt before the cell runs.
	// Package harnesschaos injects flaky and poison cells through it.
	CellFault func(spec Spec, attempt int) error
	// MemoryBudget is a soft memory watermark in bytes (0 = none): a
	// fresh cell whose projected exact-histogram footprint times the
	// worker-pool size would cross it records into the streaming
	// histogram instead, marked Downgraded. The decision depends only on
	// the spec and the pool size, so a resumed sweep makes it again.
	MemoryBudget int64
	// RunTimeout bounds the wall-clock time of each cell (0 = none): a
	// cell past it is aborted through its engine and fails with an error
	// naming the budget instead of hanging the sweep.
	RunTimeout time.Duration

	mu    sync.Mutex
	tally *audit.Report
}

// workers is the effective worker-pool size.
func (h *Harness) workers() int {
	if h.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return h.Parallel
}

// withDefaults folds the harness defaults into every setting the spec
// leaves unset; the cell is then built from the result.
func (h *Harness) withDefaults(spec Spec) Spec {
	cfg := &spec.Cfg
	if !cfg.Faults.Enabled() {
		cfg.Faults = h.Faults
	}
	if !cfg.Retry.Enabled() {
		cfg.Retry = h.Retry
	}
	cfg.Audit = cfg.Audit || h.Audit
	cfg.StreamingHist = cfg.StreamingHist || h.Streaming
	return spec
}

// recordAudit merges one run's audit report into the harness tally.
func (h *Harness) recordAudit(rep *audit.Report) {
	if rep == nil {
		return
	}
	h.mu.Lock()
	if h.tally == nil {
		h.tally = &audit.Report{}
	}
	h.tally.Merge(rep)
	h.mu.Unlock()
}

// AuditReport returns a snapshot of the merged audit tally across every
// audited run of this harness so far, or nil when none has finished.
func (h *Harness) AuditReport() *audit.Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tally.Clone()
}

// pkg is the harness behind the package-level SetParallelism,
// Parallelism and Fig12And13, kept because the benchmark under
// benchmark/ calls them; nothing else reads it.
var (
	pkgMu sync.Mutex
	pkg   Harness
)

// SetParallelism sets the worker-pool size of the package-level
// Fig12And13; n <= 0 restores the default, one worker per CPU.
func SetParallelism(n int) {
	pkgMu.Lock()
	pkg.Parallel = max(n, 0)
	pkgMu.Unlock()
}

// Parallelism returns the effective worker-pool size SetParallelism
// configured.
func Parallelism() int {
	pkgMu.Lock()
	defer pkgMu.Unlock()
	return pkg.workers()
}

// Fig12And13 runs the fig12 catalog entry's matrix on the default
// harness at the SetParallelism width.
func Fig12And13(q Quality) ([]MatrixCell, error) {
	return (&Harness{Parallel: Parallelism()}).fig12And13(q)
}
