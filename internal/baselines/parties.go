package baselines

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Parties models the long-term, feedback-driven DVFS dimension of the
// Parties resource manager (§6.3): every Interval (500ms) it reads the
// tail latency measured since the previous decision and steps the
// chip-wide V/F state according to the slack against the SLO. Because
// its decision interval is three orders of magnitude longer than a
// request burst, it reacts after the damage is done — the behaviour
// Fig 16 demonstrates.
type Parties struct {
	eng  *sim.Engine
	proc *cpu.Processor
	// SLO is the target P99.
	SLO sim.Duration
	// Interval is the decision period (500ms in the paper).
	Interval sim.Duration
	// UpSlack / DownSlack: step up when slack < UpSlack (0.1), step
	// down when slack > DownSlack (0.5).
	UpSlack, DownSlack float64

	window *stats.Hist
	cur    int
	stop   func()
}

// NewParties builds the controller. Wire Observe into the server's
// OnDone hook so the controller sees client latencies.
func NewParties(eng *sim.Engine, proc *cpu.Processor, slo sim.Duration) *Parties {
	return &Parties{
		eng:       eng,
		proc:      proc,
		SLO:       slo,
		Interval:  500 * sim.Millisecond,
		UpSlack:   0.1,
		DownSlack: 0.5,
		window:    stats.NewHist(4096),
		cur:       proc.Model.MaxP() / 2,
	}
}

// Observe feeds one completed request into the current window.
func (p *Parties) Observe(r *workload.Request) {
	p.window.Add(r.Latency())
}

// Start applies the initial state and begins the decision loop.
func (p *Parties) Start() {
	p.proc.RequestAll(p.cur)
	p.stop = p.eng.Ticker(p.Interval, p.tick)
}

// Stop halts the decision loop.
func (p *Parties) Stop() {
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
}

// Current returns the chip-wide P-state Parties currently enforces.
func (p *Parties) Current() int { return p.cur }

func (p *Parties) tick() {
	p99 := p.window.P(0.99)
	n := p.window.N()
	p.window.Reset()
	if n == 0 {
		// No traffic: drift down one step.
		if p.cur < p.proc.Model.MaxP() {
			p.cur++
		}
	} else {
		slack := (float64(p.SLO) - float64(p99)) / float64(p.SLO)
		switch {
		case slack < 0:
			// Violation: move up aggressively (several steps).
			p.cur -= 4
		case slack < p.UpSlack:
			p.cur--
		case slack > p.DownSlack:
			p.cur++
		}
		if p.cur < 0 {
			p.cur = 0
		}
		if p.cur > p.proc.Model.MaxP() {
			p.cur = p.proc.Model.MaxP()
		}
	}
	p.proc.RequestAll(p.cur)
}
