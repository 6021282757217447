package workload

import (
	"math"
	"testing"

	"nmapsim/internal/sim"
)

func TestProfilesMatchPaperParameters(t *testing.T) {
	mc := Memcached()
	if mc.SLO != sim.Duration(sim.Millisecond) {
		t.Fatalf("memcached SLO %v, want 1ms", mc.SLO)
	}
	if mc.LowRPS != 30_000 || mc.MediumRPS != 290_000 || mc.HighRPS != 750_000 {
		t.Fatal("memcached loads must be 30K/290K/750K RPS")
	}
	ng := Nginx()
	// Our nginx substitute's latency-load curve inflects at 5ms (the
	// paper's physical nginx inflected at 10ms); the SLO follows the
	// paper's inflection-point methodology.
	if ng.SLO != 5*sim.Millisecond {
		t.Fatalf("nginx SLO %v, want 5ms", ng.SLO)
	}
	if ng.LowRPS != 18_000 || ng.MediumRPS != 48_000 || ng.HighRPS != 56_000 {
		t.Fatal("nginx loads must be 18K/48K/56K RPS")
	}
}

func TestServiceCycleMeans(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, p := range Profiles() {
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += p.SampleAppCycles(rng)
		}
		mean := sum / n
		if math.Abs(mean-p.MeanAppCycles)/p.MeanAppCycles > 0.03 {
			t.Errorf("%s: sampled mean %.0f cycles, declared %.0f",
				p.Name, mean, p.MeanAppCycles)
		}
	}
}

func TestServiceCyclesPositive(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, p := range Profiles() {
		for i := 0; i < 10000; i++ {
			if c := p.SampleAppCycles(rng); c <= 0 {
				t.Fatalf("%s: non-positive service cost %f", p.Name, c)
			}
		}
	}
}

func TestBurstPatternWindows(t *testing.T) {
	b := BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.4}
	in, _ := b.inBurst(sim.Time(10 * sim.Millisecond))
	if !in {
		t.Fatal("10ms should be inside the burst window")
	}
	in, next := b.inBurst(sim.Time(50 * sim.Millisecond))
	if in {
		t.Fatal("50ms should be in the idle window")
	}
	if next != sim.Time(100*sim.Millisecond) {
		t.Fatalf("next burst at %v, want 100ms", next)
	}
	in, _ = b.inBurst(sim.Time(139 * sim.Millisecond))
	if !in {
		t.Fatal("139ms should be inside the second burst")
	}
}

func TestPeakRate(t *testing.T) {
	// Square burst (no ramp): peak = avg / frac.
	b := BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.5, Ramp: -1}
	if pr := b.PeakRate(1000); pr != 2000 {
		t.Fatalf("peak rate %f, want 2000", pr)
	}
	// Ramped burst compensates for the ramp area: 100/(50-2.5).
	br := BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.5, Ramp: 5 * sim.Millisecond}
	if pr := br.PeakRate(1000); pr < 2105 || pr > 2106 {
		t.Fatalf("ramped peak rate %f, want ~2105.3", pr)
	}
	flat := BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 1.0}
	if pr := flat.PeakRate(1000); pr != 1000 {
		t.Fatalf("flat peak rate %f, want 1000", pr)
	}
}

func TestGeneratorRateAndBurstiness(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	var arrivals []sim.Time
	g := &Generator{
		Eng:     eng,
		RNG:     rng,
		Profile: Memcached(),
		Pattern: BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.5},
		RPS:     100_000,
		Deliver: func(r *Request) { arrivals = append(arrivals, r.Sent) },
	}
	g.Start()
	horizon := sim.Time(sim.Second)
	eng.Run(horizon)
	got := float64(len(arrivals))
	if math.Abs(got-100_000)/100_000 > 0.05 {
		t.Fatalf("generated %d arrivals in 1s, want ~100000", len(arrivals))
	}
	// All arrivals must fall inside burst windows.
	b := g.Pattern
	inBurstCount := 0
	for _, a := range arrivals {
		if in, _ := b.inBurst(a); in {
			inBurstCount++
		}
	}
	if frac := float64(inBurstCount) / got; frac < 0.999 {
		t.Fatalf("only %.3f of arrivals inside burst windows", frac)
	}
}

func TestGeneratorUniqueIDsAndFlows(t *testing.T) {
	eng := sim.NewEngine()
	var reqs []*Request
	g := &Generator{
		Eng:     eng,
		RNG:     sim.NewRNG(2),
		Profile: Memcached(),
		Pattern: DefaultBurst(),
		RPS:     50_000,
		Deliver: func(r *Request) { reqs = append(reqs, r) },
	}
	g.Start()
	eng.Run(sim.Time(200 * sim.Millisecond))
	seen := map[uint64]bool{}
	flows := map[uint64]bool{}
	for _, r := range reqs {
		if seen[r.ID] {
			t.Fatal("duplicate request ID")
		}
		seen[r.ID] = true
		flows[r.Flow] = true
		if r.Flow >= uint64(g.Profile.Flows) {
			t.Fatalf("flow %d out of range", r.Flow)
		}
	}
	if len(flows) < g.Profile.Flows/2 {
		t.Fatalf("only %d distinct flows used", len(flows))
	}
}

func TestGeneratorStop(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	g := &Generator{
		Eng:     eng,
		RNG:     sim.NewRNG(4),
		Profile: Memcached(),
		Pattern: DefaultBurst(),
		RPS:     100_000,
		Deliver: func(*Request) { n++ },
	}
	g.Start()
	eng.Schedule(10*sim.Millisecond, g.Stop)
	eng.Run(sim.Time(sim.Second))
	if n == 0 {
		t.Fatal("no arrivals before stop")
	}
	atStop := n
	eng.Run(sim.Time(2 * sim.Second))
	if n != atStop {
		t.Fatal("arrivals continued after Stop")
	}
}

func TestVariableLoadSwitches(t *testing.T) {
	eng := sim.NewEngine()
	var levels []float64
	g := &Generator{
		Eng:            eng,
		RNG:            sim.NewRNG(9),
		Profile:        Memcached(),
		Pattern:        DefaultBurst(),
		VariableLevels: []float64{30_000, 290_000, 750_000},
		SwitchPeriod:   500 * sim.Millisecond,
		Deliver:        func(*Request) {},
	}
	g.Start()
	// Record the level Start drew, then each switch as it fires.
	levels = append(levels, g.curRPS)
	next := g.switchFn
	g.switchFn = func() {
		next()
		levels = append(levels, g.curRPS)
	}
	eng.Run(sim.Time(3 * sim.Second))
	if len(levels) != 7 { // t=0 plus 6 switches
		t.Fatalf("level switches = %d, want 7", len(levels))
	}
	distinct := map[float64]bool{}
	for _, l := range levels {
		distinct[l] = true
	}
	if len(distinct) < 2 {
		t.Fatal("variable load never changed level")
	}
}

func TestRequestLatency(t *testing.T) {
	r := &Request{Sent: 100}
	if r.Latency() != 0 {
		t.Fatal("in-flight latency must be 0")
	}
	r.Done = 350
	if r.Latency() != 250 {
		t.Fatalf("latency = %d, want 250", r.Latency())
	}
}

func TestLevelStrings(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("level names wrong")
	}
	mc := Memcached()
	if mc.RPS(High) != 750_000 || mc.RPS(Low) != 30_000 {
		t.Fatal("RPS(level) lookup wrong")
	}
}

// TestRTODoublesToCap pins the retry loop's fixed backoff: the timeout
// doubles per retransmission and stops at 10× its initial value.
func TestRTODoublesToCap(t *testing.T) {
	c := RetryConfig{Timeout: sim.Millisecond}
	for _, tc := range []struct {
		attempt int
		want    sim.Duration
	}{{1, 1}, {2, 2}, {3, 4}, {4, 8}, {5, 10}, {9, 10}} {
		if got := c.RTO(tc.attempt); got != tc.want*sim.Millisecond {
			t.Errorf("RTO(%d) = %v, want %v", tc.attempt, got, tc.want*sim.Millisecond)
		}
	}
}
