package cpu

import (
	"math"

	"nmapsim/internal/sim"
)

// This file implements the two micro-measurement harnesses of §5 of the
// paper by the paper's own procedure, run against the cpu model:
//
//   - Table 1: re-transition latency. "We attempt to change the current
//     V/F state by updating the ctrl register repetitively, then measure
//     the time until the update is actually reflected." (10,000 reps)
//   - Table 2: wake-up latency. A wake-up thread signals a sleeping core
//     and the time until it is runnable is recorded. (100 reps)

// LatencySample summarises a set of latency measurements.
type LatencySample struct {
	MeanUs  float64
	StdevUs float64
	N       int
}

func summarize(durs []sim.Duration) LatencySample {
	n := float64(len(durs))
	var sum float64
	for _, d := range durs {
		sum += d.Micros()
	}
	mean := sum / n
	var sq float64
	for _, d := range durs {
		diff := d.Micros() - mean
		sq += float64(diff * diff)
	}
	return LatencySample{MeanUs: mean, StdevUs: math.Sqrt(sq / n), N: len(durs)}
}

// classEndpoints returns the (from, to) state indices for a Table-1
// transition class on the given model.
func classEndpoints(m *Model, tc TransitionClass) (from, to int) {
	min := m.MaxP()
	switch tc {
	case MaxToMaxMinus1:
		return 0, 1
	case MaxMinus1ToMax:
		return 1, 0
	case MaxToMin:
		return 0, min
	case MinToMax:
		return min, 0
	case MinPlus1ToMin:
		return min - 1, min
	case MinToMinPlus1:
		return min, min - 1
	}
	panic("cpu: unknown transition class")
}

// MeasureReTransition runs the Table-1 procedure for one transition class:
// each repetition first writes `from` and, as soon as that write takes
// effect, immediately writes `to` — a back-to-back update that pays the
// re-transition latency. The time from the second write until it is
// reflected is recorded.
func MeasureReTransition(m *Model, tc TransitionClass, reps int, seed uint64) LatencySample {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	core := NewCore(0, m, eng, rng)
	from, to := classEndpoints(m, tc)

	durs := make([]sim.Duration, 0, reps)
	var step func()
	step = func() {
		if len(durs) == cap(durs) {
			return
		}
		// The core sits settled at `to` from the previous repetition (or
		// from the initialisation write below). Write `from`; as soon as
		// it takes effect, write `to` back-to-back — still within the
		// settle window, so the re-transition latency is paid and
		// measured.
		core.SetPState(from)
		eng.Schedule(m.ACPILatency+5*sim.Microsecond, func() {
			lat := core.SetPState(to)
			durs = append(durs, lat)
			eng.Schedule(m.SettleWindow*4, step)
		})
	}
	// Initialise: park the core at `to`, fully settled, then start.
	core.SetPState(to)
	eng.Schedule(m.SettleWindow*4, step)
	eng.RunAll()
	return summarize(durs)
}

// ReTransitionRow is one row of Table 1.
type ReTransitionRow struct {
	Processor  string
	Transition TransitionClass
	Sample     LatencySample
}

// MeasureTable1 reproduces all rows of Table 1 for the given models.
func MeasureTable1(models []*Model, reps int, seed uint64) []ReTransitionRow {
	classes := []TransitionClass{
		MaxToMaxMinus1, MaxMinus1ToMax, MaxToMin,
		MinToMax, MinPlus1ToMin, MinToMinPlus1,
	}
	var rows []ReTransitionRow
	for _, m := range models {
		for _, tc := range classes {
			rows = append(rows, ReTransitionRow{
				Processor:  m.Name,
				Transition: tc,
				Sample:     MeasureReTransition(m, tc, reps, seed),
			})
			seed++
		}
	}
	return rows
}

// MeasureWakeup runs the Table-2 procedure: put a core to sleep in the
// given C-state, signal it, and record the time until it is back in CC0.
func MeasureWakeup(m *Model, s CState, reps int, seed uint64) LatencySample {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	core := NewCore(0, m, eng, rng)

	durs := make([]sim.Duration, 0, reps)
	var step func()
	step = func() {
		if len(durs) == cap(durs) {
			return
		}
		core.Sleep(s)
		// The wake-up thread signals after an arbitrary quiet period.
		eng.Schedule(500*sim.Microsecond, func() {
			lat := core.Wake()
			durs = append(durs, lat)
			core.Idle()
			eng.Schedule(100*sim.Microsecond, step)
		})
	}
	step()
	eng.RunAll()
	return summarize(durs)
}

// WakeupRow is one row of Table 2.
type WakeupRow struct {
	Processor  string
	Transition string
	Sample     LatencySample
}

// MeasureTable2 reproduces all rows of Table 2 for the given models.
func MeasureTable2(models []*Model, reps int, seed uint64) []WakeupRow {
	var rows []WakeupRow
	for _, m := range models {
		rows = append(rows, WakeupRow{
			Processor:  m.Name,
			Transition: "CC6->CC0",
			Sample:     MeasureWakeup(m, CC6, reps, seed),
		})
		seed++
		rows = append(rows, WakeupRow{
			Processor:  m.Name,
			Transition: "CC1->CC0",
			Sample:     MeasureWakeup(m, CC1, reps, seed),
		})
		seed++
	}
	return rows
}
