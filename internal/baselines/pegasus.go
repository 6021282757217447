package baselines

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Pegasus models the long-term, latency-feedback power manager of Lo et
// al. (ISCA'14), which the paper classifies with the long-term DVFS
// studies: every Interval it compares the measured tail latency against
// the SLO and moves a chip-wide power target up or down — implemented
// here as a bounded P-state adjustment with PEGASUS's characteristic
// asymmetric steps (large immediate increase on violation, cautious
// single-step decrease with wide slack). Its 1s interval makes it even
// slower than Parties against bursts.
type Pegasus struct {
	eng  *sim.Engine
	proc *cpu.Processor
	// SLO is the target P99; Interval defaults to 1s.
	SLO      sim.Duration
	Interval sim.Duration
	// ViolationJump is how many states the policy moves on an SLO
	// violation (default 6 — "set maximum power" is approximated by a
	// large jump).
	ViolationJump int

	window *stats.Hist
	cur    int
	stop   func()
}

// NewPegasus builds the controller; wire Observe into server.OnDone.
func NewPegasus(eng *sim.Engine, proc *cpu.Processor, slo sim.Duration) *Pegasus {
	return &Pegasus{
		eng:           eng,
		proc:          proc,
		SLO:           slo,
		Interval:      sim.Duration(sim.Second),
		ViolationJump: 6,
		window:        stats.NewHist(8192),
		cur:           proc.Model.MaxP() / 2,
	}
}

// Observe feeds one completed request into the current window.
func (p *Pegasus) Observe(r *workload.Request) { p.window.Add(r.Latency()) }

// Start applies the initial state and begins the decision loop.
func (p *Pegasus) Start() {
	p.proc.RequestAll(p.cur)
	p.stop = p.eng.Ticker(p.Interval, p.tick)
}

// Stop halts the loop.
func (p *Pegasus) Stop() {
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
}

// Current returns the chip-wide state in force.
func (p *Pegasus) Current() int { return p.cur }

func (p *Pegasus) tick() {
	p99 := p.window.P(0.99)
	n := p.window.N()
	p.window.Reset()
	switch {
	case n == 0:
		if p.cur < p.proc.Model.MaxP() {
			p.cur++
		}
	case p99 > p.SLO:
		p.cur -= p.ViolationJump
	case float64(p99) < 0.65*float64(p.SLO):
		p.cur++
	}
	if p.cur < 0 {
		p.cur = 0
	}
	if p.cur > p.proc.Model.MaxP() {
		p.cur = p.proc.Model.MaxP()
	}
	p.proc.RequestAll(p.cur)
}
