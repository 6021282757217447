package workload

import (
	"nmapsim/internal/sim"
)

// BurstPattern shapes the open-loop arrival process: within each Period,
// arrivals are Poisson for the first BurstFrac·Period and zero for the
// rest — the "repetitive bursts along with idle periods" traffic of
// §3.1. The rate ramps linearly from zero to the peak over the first
// Ramp of each burst (client threads and congestion windows opening),
// which is the "early part of the burst before the load reaches the
// peak" that the §4.2 profiling observes.
type BurstPattern struct {
	Period    sim.Duration
	BurstFrac float64
	// Ramp is the linear ramp-up time at the start of each burst;
	// defaults to 5ms when zero (set to a negative value for a square
	// burst).
	Ramp sim.Duration
}

// DefaultBurst matches the ~10Hz burst cadence visible in Fig 2, with
// 40ms bursts (2.5× peak-to-average) and a 5ms ramp.
func DefaultBurst() BurstPattern {
	return BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.4, Ramp: 5 * sim.Millisecond}
}

func (b BurstPattern) ramp() sim.Duration {
	if b.Ramp < 0 {
		return 0
	}
	if b.Ramp == 0 {
		return 5 * sim.Millisecond
	}
	return b.Ramp
}

// burstLen returns the burst window length.
func (b BurstPattern) burstLen() sim.Duration {
	return sim.Duration(float64(b.Period) * b.BurstFrac)
}

// PeakRate returns the within-burst peak arrival rate for a given
// average offered load (requests/second), compensating for the ramp so
// the long-run average matches avgRPS.
func (b BurstPattern) PeakRate(avgRPS float64) float64 {
	if b.BurstFrac <= 0 || b.BurstFrac >= 1 {
		return avgRPS
	}
	l := float64(b.burstLen())
	r := float64(b.ramp())
	if r > l {
		r = l
	}
	// Area under the ramped burst = peak·(L - R/2).
	return avgRPS * float64(b.Period) / (l - float64(r/2))
}

// rateFrac returns the instantaneous rate at t as a fraction of the
// peak (0 outside bursts, ramping linearly at burst start).
func (b BurstPattern) rateFrac(t sim.Time) float64 {
	off := sim.Duration(int64(t) % int64(b.Period))
	if off >= b.burstLen() {
		return 0
	}
	r := b.ramp()
	if r <= 0 || off >= r {
		return 1
	}
	return float64(off) / float64(r)
}

// inBurst reports whether t falls inside a burst window, and if not,
// when the next burst starts.
func (b BurstPattern) inBurst(t sim.Time) (bool, sim.Time) {
	p := int64(b.Period)
	off := int64(t) % p
	if off < int64(b.burstLen()) {
		return true, 0
	}
	next := sim.Time(int64(t) - off + p)
	return false, next
}

// presampleBatch is how many candidate arrivals the generator draws per
// refill in batched mode.
const presampleBatch = 256

// arrival is one pre-sampled candidate: where it fires, whether the
// ramp thinning accepted it, and (if accepted) its service cost.
type arrival struct {
	at       sim.Time
	accepted bool
	cycles   float64
}

// Generator produces the open-loop request stream. Deliver is invoked at
// each arrival instant with a freshly built request; the server assembly
// adds network latency and NIC ingress.
//
// With a fixed load level the generator pre-samples candidate arrivals
// in batches of presampleBatch: the PRNG draws happen in exactly the
// per-arrival order (gap, thinning, service cost, next gap, …) and one
// engine event still fires per candidate, so the physics are
// byte-identical to the unbatched path — but the hot loop touches only
// the reusable buffer, a cached callback, and the request pool, never
// the allocator. Variable-level runs (Fig 16) keep the unbatched path,
// because the level switches interleave PRNG draws with arrivals.
type Generator struct {
	Eng     *sim.Engine
	RNG     *sim.RNG
	Profile *Profile
	Pattern BurstPattern
	// RPS is the average offered load.
	RPS float64
	// Deliver receives each request at its send instant.
	Deliver func(*Request)
	// Pool supplies request records; nil means allocate per request.
	Pool *RequestPool

	// VariableLevels, if non-empty, switches the offered load to a
	// random member every SwitchPeriod (the Fig 16 workload).
	VariableLevels []float64
	SwitchPeriod   sim.Duration

	// DisableBatching forces the unbatched per-arrival path even for
	// fixed-level runs — the debug knob the determinism tests use to
	// prove batching changes nothing.
	DisableBatching bool

	nextID  uint64
	stopped bool
	curRPS  float64

	// Cached callbacks (bound once in Start) and the pre-sample ring.
	emitFn   func()
	switchFn func()
	buf      []arrival
	head     int
	cursor   sim.Time // candidate chain position for the next refill
	batched  bool
}

// Start begins generating arrivals immediately.
func (g *Generator) Start() {
	g.curRPS = g.RPS
	g.switchFn = g.switchLevel
	if len(g.VariableLevels) > 0 {
		if g.SwitchPeriod <= 0 {
			g.SwitchPeriod = 500 * sim.Millisecond
		}
		g.switchLevel()
	}
	g.batched = len(g.VariableLevels) == 0 && !g.DisableBatching
	if g.batched {
		g.emitFn = g.emitBatched
		g.buf = make([]arrival, 0, presampleBatch)
		g.cursor = g.Eng.Now()
		g.refill()
		g.scheduleHead()
		return
	}
	g.emitFn = g.emit
	g.scheduleNext()
}

// Stop halts the generator after any already-scheduled arrival.
func (g *Generator) Stop() { g.stopped = true }

func (g *Generator) switchLevel() {
	g.curRPS = g.VariableLevels[g.RNG.Intn(len(g.VariableLevels))]
	g.Eng.Schedule(g.SwitchPeriod, func() {
		if !g.stopped {
			g.switchFn()
		}
	})
}

// newRequest builds one accepted arrival's request record.
func (g *Generator) newRequest(cycles float64) *Request {
	g.nextID++
	var r *Request
	if g.Pool != nil {
		r = g.Pool.Get()
	} else {
		r = &Request{}
	}
	r.ID = g.nextID
	r.Flow = g.nextID % uint64(g.Profile.Flows)
	r.Sent = g.Eng.Now()
	r.AppCycles = cycles
	return r
}

// refill pre-samples the next presampleBatch candidates, replaying the
// exact per-arrival draw order: gap (and burst-fold gap), thinning
// (only when the ramp fraction is < 1), then service cost (only when
// accepted).
func (g *Generator) refill() {
	g.buf = g.buf[:0]
	g.head = 0
	peak := g.Pattern.PeakRate(g.curRPS)
	if peak <= 0 {
		return
	}
	meanGap := sim.Duration(1e9 / peak)
	t := g.cursor
	for i := 0; i < presampleBatch; i++ {
		in, next := g.Pattern.inBurst(t)
		var at sim.Time
		if in {
			at = t + sim.Time(g.RNG.ExpDur(meanGap))
			// If the gap crosses the burst end, fold into the next burst.
			if in2, next2 := g.Pattern.inBurst(at); !in2 {
				at = next2 + sim.Time(g.RNG.ExpDur(meanGap))
			}
		} else {
			at = next + sim.Time(g.RNG.ExpDur(meanGap))
		}
		a := arrival{at: at, accepted: true}
		if frac := g.Pattern.rateFrac(at); frac < 1 && g.RNG.Float64() >= frac {
			a.accepted = false
		} else {
			a.cycles = g.Profile.SampleAppCycles(g.RNG)
		}
		g.buf = append(g.buf, a)
		t = at
	}
	g.cursor = t
}

// scheduleHead arms the engine event for the next pre-sampled candidate
// (one event per candidate, exactly as the unbatched path schedules).
func (g *Generator) scheduleHead() {
	if g.head < len(g.buf) {
		g.Eng.At(g.buf[g.head].at, g.emitFn)
	}
}

func (g *Generator) emitBatched() {
	if g.stopped {
		return
	}
	a := g.buf[g.head]
	g.head++
	if a.accepted {
		g.Deliver(g.newRequest(a.cycles))
	}
	if g.head == len(g.buf) {
		g.refill()
	}
	g.scheduleHead()
}

// scheduleNext schedules the next arrival according to the burst pattern
// (unbatched path).
func (g *Generator) scheduleNext() {
	if g.stopped {
		return
	}
	now := g.Eng.Now()
	peak := g.Pattern.PeakRate(g.curRPS)
	if peak <= 0 {
		return
	}
	meanGap := sim.Duration(1e9 / peak)
	in, next := g.Pattern.inBurst(now)
	var at sim.Time
	if in {
		at = now + sim.Time(g.RNG.ExpDur(meanGap))
		// If the gap crosses the burst end, fold into the next burst.
		if in2, next2 := g.Pattern.inBurst(at); !in2 {
			at = next2 + sim.Time(g.RNG.ExpDur(meanGap))
		}
	} else {
		at = next + sim.Time(g.RNG.ExpDur(meanGap))
	}
	g.Eng.At(at, g.emitFn)
}

func (g *Generator) emit() {
	if g.stopped {
		return
	}
	// Thinning for the ramp: accept this arrival with probability equal
	// to the instantaneous rate fraction.
	if frac := g.Pattern.rateFrac(g.Eng.Now()); frac < 1 && g.RNG.Float64() >= frac {
		g.scheduleNext()
		return
	}
	r := g.newRequest(g.Profile.SampleAppCycles(g.RNG))
	g.Deliver(r)
	g.scheduleNext()
}
