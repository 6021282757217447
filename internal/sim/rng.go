package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). Every stochastic component of a
// simulation draws from one RNG (or from child streams forked from it), so
// a run is fully determined by its seed.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed via splitmix64,
// which guarantees a well-mixed non-zero internal state for any seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Fork returns an independent child stream. The child is seeded from the
// parent's output, so distinct forks of the same parent are decorrelated
// while remaining reproducible.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpDur returns an exponentially distributed duration with the given
// mean duration, clamped to at least 1ns so schedulers always advance.
func (r *RNG) ExpDur(mean Duration) Duration {
	d := Duration(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Normal returns a normally distributed sample (Box–Muller).
func (r *RNG) Normal(mean, stdev float64) float64 {
	var u, v float64
	for u == 0 {
		u = r.Float64()
	}
	v = r.Float64()
	z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	return mean + float64(stdev*z)
}

// NormalDur returns a normally distributed duration clamped to >= min.
func (r *RNG) NormalDur(mean, stdev, min Duration) Duration {
	d := Duration(r.Normal(float64(mean), float64(stdev)))
	if d < min {
		d = min
	}
	return d
}

// LogNormal returns a log-normally distributed sample parameterised by the
// *target* mean and sigma of the underlying normal. Used for heavy-ish
// tailed service times.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// BoundedPareto samples a bounded Pareto distribution on [lo, hi] with
// tail index alpha, used for nginx-like response sizes. Build it once with
// NewBoundedPareto: the powers of the bounds are computed there, not per
// draw, and each Sample draws exactly one Float64.
type BoundedPareto struct {
	la, ha, laha, exp float64
}

// NewBoundedPareto returns the sampler for [lo, hi] with tail index
// alpha. It panics unless 0 < lo < hi.
func NewBoundedPareto(lo, hi, alpha float64) BoundedPareto {
	if lo <= 0 || hi <= lo {
		panic("sim: invalid bounded pareto range")
	}
	la, ha := math.Pow(lo, alpha), math.Pow(hi, alpha)
	return BoundedPareto{la: la, ha: ha, laha: ha * la, exp: -1 / alpha}
}

// Sample draws one value by inverting the CDF at one uniform draw from r.
func (p BoundedPareto) Sample(r *RNG) float64 {
	u := r.Float64()
	return math.Pow(-(float64(u*p.ha)-float64(u*p.la)-p.ha)/p.laha, p.exp)
}
