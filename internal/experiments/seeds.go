package experiments

import (
	"math"

	"nmapsim/internal/server"
)

// Stat is a mean ± standard deviation over seeds.
type Stat struct {
	Mean, Stdev float64
	N           int
}

// SeededResult aggregates one spec run across several seeds, giving the
// run-to-run confidence the paper's single-testbed numbers lack.
type SeededResult struct {
	P99Ms    Stat
	EnergyJ  Stat
	PowerW   Stat
	OverSLO  Stat // fraction of requests over the SLO
	Violated int  // seeds whose P99 exceeded the SLO
	Runs     []server.Result
}

func statOf(vals []float64) Stat {
	n := float64(len(vals))
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / n
	var sq float64
	for _, v := range vals {
		d := v - mean
		sq += d * d
	}
	stdev := 0.0
	if len(vals) > 1 {
		stdev = math.Sqrt(sq / (n - 1))
	}
	return Stat{Mean: mean, Stdev: stdev, N: len(vals)}
}

// RunSeeds runs the spec with seeds base, base+1, … base+n-1 on the
// harness worker pool and aggregates the headline metrics. The
// aggregation order is the seed order, independent of the fan-out.
func (h *Harness) RunSeeds(spec Spec, base uint64, n int) (SeededResult, error) {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = spec
		specs[i].Cfg.Seed = base + uint64(i)
	}
	runs, err := h.RunSpecs(specs)
	if err != nil {
		return SeededResult{}, err
	}
	var out SeededResult
	var p99s, energies, powers, overs []float64
	for _, res := range runs {
		out.Runs = append(out.Runs, res)
		p99s = append(p99s, res.Summary.P99.Millis())
		energies = append(energies, res.EnergyJ)
		powers = append(powers, res.AvgPowerW)
		overs = append(overs, res.FracOverSLO)
		if res.Violated {
			out.Violated++
		}
	}
	out.P99Ms = statOf(p99s)
	out.EnergyJ = statOf(energies)
	out.PowerW = statOf(powers)
	out.OverSLO = statOf(overs)
	return out, nil
}

// RelativeEnergy returns the ratio of two seeded energies (a/b) with a
// first-order propagated standard deviation.
func RelativeEnergy(a, b SeededResult) Stat {
	if b.EnergyJ.Mean == 0 {
		return Stat{}
	}
	ratio := a.EnergyJ.Mean / b.EnergyJ.Mean
	// var(a/b) ≈ (a/b)²((σa/a)² + (σb/b)²) for independent a, b.
	ra := 0.0
	if a.EnergyJ.Mean != 0 {
		ra = a.EnergyJ.Stdev / a.EnergyJ.Mean
	}
	rb := b.EnergyJ.Stdev / b.EnergyJ.Mean
	return Stat{
		Mean:  ratio,
		Stdev: ratio * math.Sqrt(ra*ra+rb*rb),
		N:     min(a.EnergyJ.N, b.EnergyJ.N),
	}
}
