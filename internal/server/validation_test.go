package server

import (
	"math"
	"testing"

	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// mm1Profile builds a deterministic-service workload with a flat
// (non-bursty) Poisson arrival process, for validating the simulated
// pipeline against queueing theory.
func mm1Profile(appCycles float64) *workload.Profile {
	return &workload.Profile{
		Name:   "mm1",
		SLO:    100 * sim.Millisecond,
		LowRPS: 1, MediumRPS: 1, HighRPS: 1,
		MeanAppCycles:   appCycles,
		SampleAppCycles: func(*sim.RNG) float64 { return appCycles },
		TxSegments:      1,
		Burst:           workload.BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.999, Ramp: -1},
		Flows:           800, // spread evenly over 8 queues
	}
}

// TestValidationMD1Queueing drives the full pipeline (NIC → NAPI → app)
// with flat Poisson arrivals and deterministic service, and checks the
// measured mean sojourn time against the M/D/1 prediction
//
//	W = S + ρS/(2(1-ρ))
//
// within generous tolerance (the pipeline adds IRQ batching and
// softirq/app interleaving that theory ignores). This validates that
// the simulator's queueing behaviour — the foundation every experiment
// rests on — is not distorted by the event machinery.
func TestValidationMD1Queueing(t *testing.T) {
	if testing.Short() {
		t.Skip("validation run is slow")
	}
	// Per-request service at P0: rx 3500 + tx 1000 + app 8300 ≈ 4µs.
	prof := mm1Profile(8300)
	const totalRPS = 1_200_000 // per core: 150K → ρ ≈ 0.6
	cfg := Config{
		Seed:     77,
		Profile:  prof,
		RPS:      totalRPS,
		Warmup:   100 * sim.Millisecond,
		Duration: 800 * sim.Millisecond,
	}
	idle, _ := governor.NewIdlePolicy("disable") // no wake latencies
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	res, _ := s.Run()

	// Rx protocol processing + Tx-completion cleaning + app.
	svcCycles := kernel.PerPktCycles + 1000 + prof.MeanAppCycles
	S := svcCycles / 3.2 // ns at P0
	lambda := totalRPS / 8.0 / 1e9
	rho := lambda * S
	if rho < 0.4 || rho > 0.8 {
		t.Fatalf("test mis-calibrated: rho = %.2f", rho)
	}
	wait := rho * S / (2 * (1 - rho)) // M/D/1 mean wait
	// Subtract the constant path: 2× network (base 15µs + mean jitter
	// 3µs), DMA 2µs, IRQ latency ~1µs, wire 1.2µs, plus the hardirq
	// handler's 1000 cycles.
	base := 2*18_000.0 + 2_000 + 1_000 + 1_200 + 1000/3.2
	measured := float64(res.Summary.Mean)
	predicted := base + S + wait
	ratio := measured / predicted
	if math.Abs(ratio-1) > 0.30 {
		t.Fatalf("mean sojourn %.1fµs vs M/D/1 prediction %.1fµs (ratio %.2f, want within 30%%)",
			measured/1000, predicted/1000, ratio)
	}
}

// TestValidationLittlesLaw checks flow conservation: completed requests
// over the measured window must match the offered rate (no losses, no
// double counting) — Little's-law bookkeeping for the whole pipeline.
func TestValidationLittlesLaw(t *testing.T) {
	prof := mm1Profile(5000)
	cfg := Config{
		Seed:     78,
		Profile:  prof,
		RPS:      400_000,
		Warmup:   100 * sim.Millisecond,
		Duration: 500 * sim.Millisecond,
	}
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}))
	res, _ := s.Run()
	want := 400_000 * 0.5
	got := float64(res.Summary.N)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("measured %d completions, want ~%.0f (±5%%)", res.Summary.N, want)
	}
	if res.Drops != 0 {
		t.Fatalf("drops at ρ≈0.5: %d", res.Drops)
	}
}
