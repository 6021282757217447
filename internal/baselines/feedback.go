package baselines

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Feedback is the long-term, latency-feedback DVFS loop Parties and
// Pegasus share: every interval it reads the P99 of the client
// latencies observed since the previous decision, moves the chip-wide
// V/F state by the policy's step rule and clamps it to the table. A
// window with no traffic drifts one state slower. Its decision interval
// is orders of magnitude longer than a request burst, so it reacts
// after the damage is done — the behaviour Fig 16 demonstrates.
type Feedback struct {
	eng      *sim.Engine
	proc     *cpu.Processor
	slo      sim.Duration
	interval sim.Duration
	// step returns the change in P-state index for a window's P99:
	// negative is faster.
	step func(p99, slo sim.Duration) int

	window *stats.Hist
	cur    int
}

func newFeedback(eng *sim.Engine, proc *cpu.Processor, slo, interval sim.Duration, capacity int,
	step func(p99, slo sim.Duration) int) *Feedback {
	return &Feedback{
		eng:      eng,
		proc:     proc,
		slo:      slo,
		interval: interval,
		step:     step,
		window:   stats.NewHist(capacity),
		cur:      proc.Model.MaxP() / 2,
	}
}

// NewParties builds the DVFS dimension of the Parties resource manager
// (Chen et al., ASPLOS'19; §6.3): every 500ms it steps the chip-wide
// V/F state by the P99's slack against the SLO — four states faster on
// a violation, one faster below 10% slack, one slower above 50%. It
// reads client latencies as a request listener.
func NewParties(eng *sim.Engine, proc *cpu.Processor, slo sim.Duration) *Feedback {
	return newFeedback(eng, proc, slo, 500*sim.Millisecond, 4096, func(p99, slo sim.Duration) int {
		slack := (float64(slo) - float64(p99)) / float64(slo)
		switch {
		case slack < 0:
			return -4
		case slack < 0.1:
			return -1
		case slack > 0.5:
			return 1
		}
		return 0
	})
}

// NewPegasus builds the latency-feedback power manager of Lo et al.
// (ISCA'14), which the paper classifies with the long-term DVFS
// studies: every second it compares the P99 against the SLO with
// PEGASUS's asymmetric steps — six states faster on a violation (its
// "set maximum power" approximated by a large jump), one cautious step
// slower below 65% of the SLO. Its 1s interval makes it even slower
// than Parties against bursts. It reads latencies like Parties.
func NewPegasus(eng *sim.Engine, proc *cpu.Processor, slo sim.Duration) *Feedback {
	return newFeedback(eng, proc, slo, sim.Duration(sim.Second), 8192, func(p99, slo sim.Duration) int {
		switch {
		case p99 > slo:
			return -6
		case float64(p99) < 0.65*float64(slo):
			return 1
		}
		return 0
	})
}

// OnRequest feeds each completion's latency into the current window.
func (f *Feedback) OnRequest(r *workload.Request) {
	if r.Done != 0 {
		f.window.Add(r.Latency())
	}
}

// Start applies the initial state and begins the decision loop.
func (f *Feedback) Start() {
	f.proc.RequestAll(f.cur)
	f.eng.Ticker(f.interval, f.tick)
}

func (f *Feedback) tick() {
	p99 := f.window.P(0.99)
	n := f.window.N()
	f.window.Reset()
	maxP := f.proc.Model.MaxP()
	if n == 0 {
		f.cur = min(f.cur+1, maxP)
	} else {
		f.cur = min(max(f.cur+f.step(p99, f.slo), 0), maxP)
	}
	f.proc.RequestAll(f.cur)
}
