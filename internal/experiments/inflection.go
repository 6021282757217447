package experiments

import (
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// InflectionPoint is the outcome of a latency-load sweep: the knee of
// the curve, which the paper's methodology uses to set each
// application's SLO ("we set the SLO for the applications to the
// inflection point of the latency-load curve as prior studies do").
type InflectionPoint struct {
	// RPS is the offered load at the knee.
	RPS float64
	// P99 is the tail latency at the knee — the SLO candidate.
	P99 sim.Duration
	// Curve holds every (rps, p99) sample of the sweep.
	Curve []SweepPoint
}

// SweepPoint is one sample of a latency-load curve.
type SweepPoint struct {
	RPS float64
	P99 sim.Duration
}

// kneeFactor is how many times the low-load P99 a load's P99 must
// exceed to be the knee.
const kneeFactor = 5

// FindInflection sweeps the offered load from lo to hi in steps and
// locates the knee: the first load whose P99 exceeds kneeFactor× the
// low-load baseline. The sweep runs under the performance governor (the
// best-case configuration, as in the paper's SLO-setting procedure).
func (h *Harness) FindInflection(profile *workload.Profile, lo, hi float64, steps int, q Quality) (InflectionPoint, error) {
	if steps < 2 {
		steps = 2
	}
	specs := make([]Spec, steps)
	for i := range specs {
		specs[i] = Spec{
			Policy: "performance",
			Idle:   "menu",
			Cfg: server.Config{
				Seed:     defaultSeed,
				Profile:  profile,
				RPS:      lo + (hi-lo)*float64(i)/float64(steps-1),
				Warmup:   q.warmup(),
				Duration: q.duration(),
			},
		}
	}
	curve, err := runRows(h, specCells(specs), func(i int, c CellResult) SweepPoint {
		return SweepPoint{RPS: specs[i].Cfg.RPS, P99: c.Result.Summary.P99}
	})
	if err != nil {
		return InflectionPoint{}, err
	}
	out := InflectionPoint{Curve: curve}
	for _, pt := range curve[1:] {
		if float64(pt.P99) > kneeFactor*float64(curve[0].P99) {
			out.RPS, out.P99 = pt.RPS, pt.P99
			break
		}
	}
	if out.RPS == 0 {
		// No knee inside the range: report the last point.
		last := out.Curve[len(out.Curve)-1]
		out.RPS = last.RPS
		out.P99 = last.P99
	}
	return out, nil
}
