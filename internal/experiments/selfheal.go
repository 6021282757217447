package experiments

import (
	"fmt"
	"time"

	"nmapsim/internal/server"
)

// Self-healing orchestration: the knobs that let an hours-long sweep
// survive its own harness. A cell that fails transiently is retried with
// exponential backoff under a per-cell deadline (the workload-level
// RetryConfig semantics, one layer up); a cell that keeps failing is
// quarantined — reported in its CellResult, never silently skipped — so
// one pathological config cannot sink the other 9,999; and a soft
// memory watermark downgrades new cells from the exact sample recorder
// to the bounded streaming histogram instead of letting the sweep die
// under memory pressure. All of it is opt-in (Harness.CellRetry,
// Harness.CellFault, Harness.MemoryBudget): under the zero Harness the
// orchestration path is byte-identical to the pre-healing harness.

// HarnessRetry is the per-cell retry policy, mirroring
// workload.RetryConfig at the orchestration layer: a base backoff
// delay doubled after every failed attempt (capped at 10× the base), a
// bounded retry budget, and a wall-clock deadline across all attempts
// of one cell. The zero value disables retrying entirely — a failing
// cell fails the sweep on its first error, the seed behaviour.
type HarnessRetry struct {
	// MaxRetries bounds re-runs per cell (not counting the first
	// attempt). Zero disables retrying.
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles after
	// each failed attempt and is capped at 10× its base value. Zero
	// retries immediately.
	Backoff time.Duration
	// Deadline bounds the wall-clock time spent on all attempts of one
	// cell, delays included. Zero means no deadline.
	Deadline time.Duration
	// Quarantine keeps the sweep alive when a cell exhausts its
	// attempts: the cell is marked Quarantined in its CellResult (and
	// rendered explicitly by the CLIs) instead of failing the whole
	// sweep. Quarantined cells are never journaled, so a resume retries
	// them.
	Quarantine bool
}

// Validate rejects nonsensical retry parameters with errors naming the
// offending knob.
func (r HarnessRetry) Validate() error {
	if r.MaxRetries < 0 {
		return fmt.Errorf("experiments: negative cell retry budget %d", r.MaxRetries)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("experiments: negative cell retry backoff %v", r.Backoff)
	}
	if r.Deadline < 0 {
		return fmt.Errorf("experiments: negative cell deadline %v", r.Deadline)
	}
	return nil
}

// Delay returns the backoff before retry number n (1 = first retry):
// Backoff × 2^(n-1), capped at 10× Backoff — the same shape as
// workload.RetryConfig.RTO.
func (r HarnessRetry) Delay(n int) time.Duration {
	if r.Backoff <= 0 {
		return 0
	}
	d, ceil := r.Backoff, 10*r.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= ceil {
			return ceil
		}
	}
	return d
}

// downgradeForBudget applies the memory watermark to one cell about to
// run fresh, flipping it to the streaming recorder when its projected
// exact-mode footprint across the worker pool would cross the budget.
// Reports whether it downgraded.
func (h *Harness) downgradeForBudget(spec *Spec) bool {
	if h.MemoryBudget <= 0 || spec.Cfg.StreamingHist || h.Streaming {
		return false
	}
	if server.EstimatedHistBytes(spec.Cfg)*int64(h.workers()) <= h.MemoryBudget {
		return false
	}
	spec.Cfg.StreamingHist = true
	return true
}
