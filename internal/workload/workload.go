// Package workload provides the load side of the reproduction: the
// memcached- and nginx-like request profiles (per-request CPU cost
// distributions, SLOs, and the paper's three load levels), the bursty
// open-loop traffic generator of §3.1 ("repetitive bursts of network
// packets along with idle periods"), the randomly switching load of
// Fig 16, and client-side response-time recording.
package workload

import (
	"fmt"

	"nmapsim/internal/sim"
)

// Request is one client request travelling through the simulated stack.
// The NIC carries it as a packet payload; the kernel app thread charges
// AppCycles for it; the client records the response time when the reply
// returns.
type Request struct {
	ID   uint64
	Flow uint64
	// Sent is when the client issued the request.
	Sent sim.Time
	// AppCycles is the application-level service cost.
	AppCycles float64
	// Done is when the client received the response (0 while in flight).
	Done sim.Time
	// Dispatched is when the cluster front end last dispatched a copy of
	// this request toward a node — stamped per attempt (fresh issue,
	// resteer, hedge), so per-attempt fabric latency is land−Dispatched
	// while Sent keeps the front-end latency definition spanning every
	// attempt. Zero outside a cluster run.
	Dispatched sim.Time

	// Client-side recovery state (used only when the server's retry
	// loop is enabled; all zero on the fault-free fast path).
	//
	// Attempts counts transmissions, including the first. Pending counts
	// copies of this request currently inside the server datapath — a
	// retransmission puts a second copy in flight, and the record may
	// only be recycled once every copy has drained. Timer is the armed
	// retransmission timeout. TimedOut/Lost mark the terminal outcome
	// when the request never completed: TimedOut means the retry budget
	// ran out; Lost means every copy was dropped with no timeout armed
	// to recover it (retries disabled).
	Attempts int
	Pending  int
	Timer    sim.Event
	TimedOut bool
	Lost     bool
	// Shed marks a request refused by the server's admission controller
	// (SLO-aware load shedding): terminal at issue time, no copy ever
	// entered the datapath.
	Shed bool
}

// Latency returns the end-to-end response time (0 while in flight).
func (r *Request) Latency() sim.Duration {
	if r.Done == 0 {
		return 0
	}
	return sim.Duration(r.Done - r.Sent)
}

// RequestPool is a free list of Request records. The generator takes
// records from it at each arrival and the server returns them when the
// response reaches the client, so a steady-state run keeps a working
// set bounded by the peak number of in-flight requests instead of
// allocating one record per request. The zero value is ready to use.
type RequestPool struct {
	free []*Request
	// disabled turns Put into a no-op (the determinism debug knob: a
	// seeded run with recycling off must be byte-identical to one with
	// it on).
	disabled bool
}

// Disable turns off recycling: Put becomes a no-op, so every Get after
// the pool drains mints a fresh record.
func (p *RequestPool) Disable() { p.disabled = true }

// Get returns a zeroed Request.
func (p *RequestPool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return &Request{}
}

// Put recycles a finished request. The caller must not touch r after
// handing it back.
func (p *RequestPool) Put(r *Request) {
	if p.disabled || r == nil {
		return
	}
	*r = Request{}
	p.free = append(p.free, r)
}

// Size returns the number of idle pooled records — bounded by the peak
// number of requests simultaneously in flight.
func (p *RequestPool) Size() int { return len(p.free) }

// Profile describes one latency-critical application from the paper.
type Profile struct {
	Name string
	// SLO is the P99 response-time objective. Following the paper's
	// methodology it is set at the inflection point of each
	// application's latency-load curve ON THIS TESTBED: 1ms for
	// memcached (as in the paper) and 5ms for our nginx substitute
	// (the paper's physical nginx inflected at 10ms; see DESIGN.md).
	SLO sim.Duration
	// LowRPS, MediumRPS, HighRPS are the paper's three total offered
	// loads (requests per second across the whole server).
	LowRPS, MediumRPS, HighRPS float64
	// MeanAppCycles is the mean application service cost per request.
	MeanAppCycles float64
	// SampleAppCycles draws one request's service cost.
	SampleAppCycles func(rng *sim.RNG) float64
	// TxSegments is the number of MTU segments per response (1 for
	// memcached's small values; ~48 for nginx's ≈70KB static files).
	// Each segment posts a Tx completion the softirq must clean — the
	// Tx half of the NAPI traffic in Fig 1.
	TxSegments int
	// Burst is the application's burst shape (§3.1). nginx traffic is
	// spikier (page loads fan out) than memcached's.
	Burst BurstPattern
	// Flows is the number of client connections (20 client threads × 2
	// connections in our setup); RSS spreads them across cores.
	Flows int
}

// Level selects one of the paper's three load levels.
type Level int

// The three load levels used throughout the evaluation.
const (
	Low Level = iota
	Medium
	High
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return fmt.Sprintf("level%d", int(l))
}

// Levels lists all three in evaluation order.
var Levels = []Level{Low, Medium, High}

// RPS returns the profile's offered load at the given level.
func (p *Profile) RPS(l Level) float64 {
	switch l {
	case Low:
		return p.LowRPS
	case Medium:
		return p.MediumRPS
	case High:
		return p.HighRPS
	}
	return p.LowRPS
}

// Memcached returns the in-memory key-value store profile: tiny, fairly
// uniform GET/SET service times, 1ms SLO, loads 30K/290K/750K RPS.
// With the default kernel costs (Rx 3500 + TxClean 1000 cycles) the
// total per-request cost is ≈11,500 cycles ≈ 3.6µs at P0 / 9.6µs at
// P15, so the per-core burst peak (2.5× the average) is sustainable at
// P0 but overloads Pmin at medium and high load — the regime §3
// establishes.
func Memcached() *Profile {
	const mean = 7500
	return &Profile{
		Name:          "memcached",
		SLO:           1 * sim.Millisecond,
		LowRPS:        30_000,
		MediumRPS:     290_000,
		HighRPS:       750_000,
		MeanAppCycles: mean,
		SampleAppCycles: func(rng *sim.RNG) float64 {
			// Lognormal with ~42% dispersion around the mean (GET/SET mix).
			v := rng.LogNormal(0, 0.40)
			return mean * v / 1.0833 // E[lognormal(0,0.40)] = e^{0.08}
		},
		TxSegments: 1,
		Burst:      BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.4, Ramp: 5 * sim.Millisecond},
		Flows:      40,
	}
}

// Nginx returns the static web-server profile: ≈70KB static-file
// responses (48 MTU segments, each posting a Tx completion — the bulk of
// nginx's per-request kernel work), heavier-tailed application service
// times (response size follows a bounded Pareto), 5ms SLO, loads
// 18K/48K/56K RPS, and spikier bursts (4× peak-to-average) than
// memcached. Total per-request cost ≈102,000 cycles ≈ 32µs at P0 /
// 85µs at P15.
func Nginx() *Profile {
	const mean = 60_000
	// Bounded Pareto on [0.4, 8]× the base with alpha 1.5 has mean
	// ≈ 0.942; SampleAppCycles normalises so the profile mean holds.
	size := sim.NewBoundedPareto(0.4, 8, 1.5)
	return &Profile{
		Name:          "nginx",
		SLO:           5 * sim.Millisecond,
		LowRPS:        18_000,
		MediumRPS:     48_000,
		HighRPS:       56_000,
		MeanAppCycles: mean,
		SampleAppCycles: func(rng *sim.RNG) float64 {
			return mean * size.Sample(rng) / 0.942
		},
		TxSegments: 48,
		Burst:      BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.25, Ramp: 5 * sim.Millisecond},
		Flows:      40,
	}
}

// Profiles returns both evaluation applications.
func Profiles() []*Profile { return []*Profile{Memcached(), Nginx()} }

// ProfileByName returns the evaluation application named name
// ("memcached" or "nginx").
func ProfileByName(name string) (*Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}
