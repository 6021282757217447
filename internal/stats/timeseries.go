package stats

import (
	"nmapsim/internal/sim"
)

// Counter is a time-binned event counter: each Add accumulates into the
// bin covering the event's timestamp. Used for the per-millisecond packet
// counts, ksoftirqd wake marks and CC6-entry marks of Figs 2, 7 and 9.
type Counter struct {
	binW sim.Duration
	bins []float64
}

// NewCounter returns a counter with the given bin width.
func NewCounter(binW sim.Duration) *Counter {
	if binW <= 0 {
		panic("stats: non-positive bin width")
	}
	return &Counter{binW: binW}
}

// Add accumulates v into the bin covering t.
func (c *Counter) Add(t sim.Time, v float64) {
	idx := int(int64(t) / int64(c.binW))
	for len(c.bins) <= idx {
		c.bins = append(c.bins, 0)
	}
	c.bins[idx] += v
}

// Bins returns the accumulated bins (index i covers [i·binW, (i+1)·binW)).
func (c *Counter) Bins() []float64 { return c.bins }

// Bin returns the value of bin i (0 for bins never touched).
func (c *Counter) Bin(i int) float64 {
	if i < 0 || i >= len(c.bins) {
		return 0
	}
	return c.bins[i]
}

// Gauge records a piecewise-constant signal (e.g. the P-state of a core)
// as change points and can resample it onto a fixed grid.
type Gauge struct {
	times []sim.Time
	vals  []float64
}

// NewGauge returns a gauge with the given initial value at t=0.
func NewGauge(initial float64) *Gauge {
	return &Gauge{times: []sim.Time{0}, vals: []float64{initial}}
}

// Set records a new value at time t. Out-of-order sets are ignored except
// for same-instant updates, which overwrite.
func (g *Gauge) Set(t sim.Time, v float64) {
	last := g.times[len(g.times)-1]
	switch {
	case t < last:
		return
	case t == last:
		g.vals[len(g.vals)-1] = v
	default:
		g.times = append(g.times, t)
		g.vals = append(g.vals, v)
	}
}

// At returns the gauge value in effect at time t.
func (g *Gauge) At(t sim.Time) float64 {
	// Binary search for the last change point <= t.
	lo, hi := 0, len(g.times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.times[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return g.vals[lo]
}

// Sample resamples the gauge at bin boundaries over [0, horizon).
func (g *Gauge) Sample(binW sim.Duration, horizon sim.Time) []float64 {
	n := int(int64(horizon) / int64(binW))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = g.At(sim.Time(int64(i) * int64(binW)))
	}
	return out
}

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

// N returns the number of points.
func (s *Scatter) N() int { return len(s.Times) }

// Window returns the points with from <= t < to.
func (s *Scatter) Window(from, to sim.Time) *Scatter {
	out := &Scatter{}
	for i, t := range s.Times {
		if t >= from && t < to {
			out.Add(t, s.Vals[i])
		}
	}
	return out
}
