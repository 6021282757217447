package experiments

import (
	"math"
	"slices"
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// sameEnergy fails t unless the two runs' package and per-core energies
// are bit-identical.
func sameEnergy(t *testing.T, name string, plain, observed server.Result) {
	t.Helper()
	if math.Float64bits(plain.EnergyJ) != math.Float64bits(observed.EnergyJ) {
		t.Errorf("%s: package energy %v sampled, %v unsampled", name, observed.EnergyJ, plain.EnergyJ)
	}
	if len(plain.PerCore) != len(observed.PerCore) {
		t.Fatalf("%s: %d cores sampled, %d unsampled", name, len(observed.PerCore), len(plain.PerCore))
	}
	for i, pc := range plain.PerCore {
		if math.Float64bits(pc.EnergyJ) != math.Float64bits(observed.PerCore[i].EnergyJ) {
			t.Errorf("%s: core %d energy %v sampled, %v unsampled", name, i, observed.PerCore[i].EnergyJ, pc.EnergyJ)
		}
	}
}

// total sums a sampled counter's growth over every bucket of the run.
func total(sm *sampler, f func(*reading) uint64) uint64 {
	var sum uint64
	for _, v := range sm.series(0, sm.n, f) {
		sum += uint64(v)
	}
	return sum
}

// TestSamplerIsAPureObserver pins the observer contract of the figure
// sampler on Fig 2/9-style trace cells: the sampled run's energies,
// package and per core, are bit-identical to the same spec run
// unsampled, and each sampled column summed over all buckets equals
// the layer's own counter at the horizon.
func TestSamplerIsAPureObserver(t *testing.T) {
	var specs []Spec
	for _, prof := range workload.Profiles() {
		for _, pol := range []string{"nmap", "ondemand", "performance"} {
			specs = append(specs, tracedSpec(Quick, traceWindow, prof, workload.High, pol, "menu"))
		}
	}
	h := new(Harness)
	plain, err := h.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		sm  *sampler
		res server.Result
	}
	runs, err := runTraced(h, specs, func(_ Spec, sm *sampler, res server.Result) run { return run{sm, res} })
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		name := spec.Cfg.Profile.Name + "/" + spec.Policy
		sameEnergy(t, name, plain[i], runs[i].res)
		sm, pc := runs[i].sm, runs[i].res.PerCore[0]
		for _, col := range []struct {
			name string
			f    func(*reading) uint64
			want uint64
		}{
			{"PktIntr", func(r *reading) uint64 { return r.pktIntr }, pc.PktIntr},
			{"PktPoll", func(r *reading) uint64 { return r.pktPoll }, pc.PktPoll},
			{"KsoftirqdWakes", func(r *reading) uint64 { return r.ksWakes }, pc.KsoftirqdWakes},
			{"CC6Entries", func(r *reading) uint64 { return r.cc6 }, uint64(pc.CC6Entries)},
		} {
			if got := total(sm, col.f); got != col.want {
				t.Errorf("%s: %s sums to %d over the buckets, core 0 counted %d", name, col.name, got, col.want)
			}
		}
	}
}

// TestResilienceTimelineIsAPureObserver is the same contract for the
// fig-resilience cells, whose timeline samples the shed ledger and the
// offline population: each arm's result matches its spec run
// unsampled, and the shed column sums to the run's shed count.
func TestResilienceTimelineIsAPureObserver(t *testing.T) {
	h := new(Harness)
	fig, err := h.figResilience(Quick)
	if err != nil {
		t.Fatal(err)
	}
	warm, dur := Quick.warmup(), Quick.duration()
	for _, run := range fig.Runs {
		plain, err := h.RunSpecs([]Spec{{
			Policy: fig.Policy,
			Idle:   "menu",
			Cfg: server.Config{
				Seed: defaultSeed, Profile: workload.Memcached(), Level: workload.High,
				Warmup: warm, Duration: dur, ShedSLOMultiple: run.ShedSLOMultiple,
				Faults: faults.Config{CoreCrashes: []faults.CoreCrash{{
					Core:     fig.CrashCore,
					At:       sim.Duration(fig.CrashAtMs) * sim.Millisecond,
					Duration: sim.Duration(fig.RecoverAtMs-fig.CrashAtMs) * sim.Millisecond,
				}}},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		sameEnergy(t, run.Name, plain[0], run.Result)
		if plain[0].Reqs != run.Result.Reqs {
			t.Errorf("%s: ledger %+v sampled, %+v unsampled", run.Name, run.Result.Reqs, plain[0].Reqs)
		}
		var shed uint64
		for _, b := range run.Buckets {
			shed += b.Count
		}
		if shed != run.Result.Reqs.Shed {
			t.Errorf("%s: shed column sums to %d, ledger shed %d", run.Name, shed, run.Result.Reqs.Shed)
		}
		if run.ShedSLOMultiple > 0 && shed == 0 {
			t.Errorf("%s: the shedding arm shed nothing", run.Name)
		}
	}
	if len(fig.Runs) != 2 {
		t.Fatalf("%d resilience arms, want 2", len(fig.Runs))
	}
}

// TestP99OfMatchesHist pins the timelines' P99 to the headline one: for
// every sample count from 1 to 1000, p99Of picks the same sample as
// stats.Hist.P(0.99) over the same latencies.
func TestP99OfMatchesHist(t *testing.T) {
	rng := sim.NewRNG(5)
	h := stats.NewHist(1000)
	var all []sim.Duration
	for n := 1; n <= 1000; n++ {
		d := sim.Duration(1+rng.Intn(1_000_000)) * sim.Nanosecond
		all = append(all, d)
		h.Add(d)
		if got, want := p99Of(slices.Clone(all)), h.P(0.99); got != want {
			t.Fatalf("n=%d: p99Of = %v, Hist.P(0.99) = %v", n, got, want)
		}
	}
}
