package experiments

import "nmapsim/internal/server"

// Self-healing orchestration: the knobs that let an hours-long sweep
// survive its own harness. A cell whose attempt overran its wall-clock
// budget or hit an injected harness fault is re-run (Harness.CellRetries;
// every other failure would repeat byte for byte); a cell that still
// fails is quarantined — reported in its CellResult, never silently
// skipped — so one pathological config cannot sink the other 9,999; and
// a soft memory watermark downgrades new cells from the exact sample
// recorder to the bounded streaming histogram instead of letting the
// sweep die under memory pressure. All of it is opt-in: under the zero
// Harness the orchestration path is byte-identical to the pre-healing
// harness.

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
