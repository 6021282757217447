package stats

import (
	"nmapsim/internal/sim"
)

// Scatter records raw (time, value) points, e.g. the per-request response
// latency dots of Figs 3, 10 and 16.
type Scatter struct {
	Times []sim.Time
	Vals  []float64
}

// Add appends one point.
func (s *Scatter) Add(t sim.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Vals = append(s.Vals, v)
}
