package experiments

import (
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// The µs-SLO experiment motivates the paper's §8 outlook: "the sleep
// state management is a challenge for latency-critical applications
// with µs scale SLOs". On the millisecond SLOs of the main evaluation,
// a 27µs CC6 wake-up is invisible; against a 90µs objective it is a
// third of the budget, paid at the head of every idle→busy transition —
// deep sleep flips from a free energy saving to an SLO violation.

// microService returns a synthetic µs-scale RPC profile: ~1.2µs of
// application work per request (a hash-table lookup), single-segment
// responses, a 90µs P99 objective, and the usual bursty arrivals.
func microService() *workload.Profile {
	const mean = 4000
	return &workload.Profile{
		Name:          "usvc",
		SLO:           90 * sim.Microsecond,
		LowRPS:        20_000,
		MediumRPS:     60_000,
		HighRPS:       120_000,
		MeanAppCycles: mean,
		SampleAppCycles: func(rng *sim.RNG) float64 {
			v := rng.LogNormal(0, 0.25)
			return mean * v / 1.0317
		},
		TxSegments: 1,
		Burst:      workload.BurstPattern{Period: 100 * sim.Millisecond, BurstFrac: 0.4, Ramp: 5 * sim.Millisecond},
		Flows:      40,
	}
}

// MicroSLOCell is one sleep-policy result on the µs-SLO workload.
type MicroSLOCell struct {
	Policy   string
	Idle     string
	P99      sim.Duration
	Violated bool
	EnergyJ  float64
}

// ablationMicroSLO runs the µs-SLO workload at its low load (where idle
// gaps are long and the menu/c6only policies sleep deeply) under the
// performance governor with each sleep policy, plus the sleep-integrated
// NMAP extension. The expected §8 shape: deep sleep now costs tail
// latency, disable buys it back with energy, and the integrated policy
// sits in between.
func (h *Harness) ablationMicroSLO(q Quality) ([]MicroSLOCell, error) {
	prof := microService()
	var specs []Spec
	for _, idle := range []string{"disable", "menu", "c6only"} {
		specs = append(specs, figSpec(q, prof, "performance", idle).at(workload.Low))
	}
	specs = append(specs, figSpec(q, prof, "nmap-sleep", "c6only").at(workload.Low))
	return runRows(h, specCells(specs), func(i int, c CellResult) MicroSLOCell {
		res := c.Result
		return MicroSLOCell{
			Policy: specs[i].Policy, Idle: specs[i].Idle,
			P99: res.Summary.P99, Violated: res.Violated, EnergyJ: res.EnergyJ,
		}
	})
}
