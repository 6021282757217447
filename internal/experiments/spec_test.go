package experiments

import (
	"context"
	"testing"

	"nmapsim/internal/core"
	"nmapsim/internal/cpu"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// runSpec runs one spec through RunSpecs, the one cell path, and
// returns its (possibly partial) result and the run's error.
func runSpec(h *Harness, spec Spec) (server.Result, error) {
	cells, err := h.RunSpecs(context.Background(), []Spec{spec})
	return cells[0].Result, err
}

func quickSpec(policy string) Spec {
	return Spec{
		Policy: policy,
		Idle:   "menu",
		Cfg: server.Config{
			Seed:     3,
			Level:    workload.Low,
			Warmup:   50 * sim.Millisecond,
			Duration: 150 * sim.Millisecond,
		},
		// Fixed thresholds so Build never triggers a profiling run in
		// unit tests.
		Thresholds: core.Thresholds{NITh: 32, CUTh: 0.25},
	}
}

func TestBuildAllPolicies(t *testing.T) {
	for _, pol := range PolicyNames {
		s, err := Build(quickSpec(pol))
		if err != nil {
			t.Fatalf("Build(%q): %v", pol, err)
		}
		if s == nil {
			t.Fatalf("Build(%q) returned nil server", pol)
		}
	}
}

func TestBuildRejectsUnknownNames(t *testing.T) {
	if _, err := Build(Spec{Policy: "nope", Idle: "menu"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Build(Spec{Policy: "nmap", Idle: "nope"}); err == nil {
		t.Fatal("unknown idle policy accepted")
	}
}

func TestNCAPSpecsForceChipWide(t *testing.T) {
	for _, pol := range []string{"ncap", "ncap-menu"} {
		s, err := Build(quickSpec(pol))
		if err != nil {
			t.Fatal(err)
		}
		if s.Proc.PerCore() {
			t.Fatalf("%s must run chip-wide DVFS", pol)
		}
	}
	s, _ := Build(quickSpec("nmap"))
	if !s.Proc.PerCore() {
		t.Fatal("nmap must run per-core DVFS on the Gold 6134")
	}
}

func TestRunProducesResults(t *testing.T) {
	res, err := runSpec(new(Harness), quickSpec("ondemand"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N == 0 || res.EnergyJ <= 0 {
		t.Fatalf("empty result: %v", res)
	}
}

func TestProfiledThresholdsCached(t *testing.T) {
	a := ProfiledThresholds(workload.Memcached(), 777)
	b := ProfiledThresholds(workload.Memcached(), 777)
	if a != b {
		t.Fatal("threshold cache returned different values")
	}
	if a.NITh < core.MinNITh || a.NITh > core.MaxNITh {
		t.Fatalf("NI_TH %f outside clamp", a.NITh)
	}
	if a.CUTh <= 0 {
		t.Fatalf("CU_TH %f not positive", a.CUTh)
	}
}

func TestTraceCapturesSeries(t *testing.T) {
	tf, err := new(Harness).RunTrace(workload.Memcached(), workload.High, "ondemand", "menu",
		100*sim.Millisecond, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Ms != 100 {
		t.Fatalf("trace bins = %d, want 100", tf.Ms)
	}
	var tot float64
	for i := 0; i < tf.Ms; i++ {
		tot += tf.PktIntr[i] + tf.PktPoll[i]
	}
	if tot == 0 {
		t.Fatal("trace captured no packets")
	}
	if len(tf.PState) == 0 {
		t.Fatal("no P-state series")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	t1 := renderTable1("Table 1", cpu.MeasureTable1(cpu.Models, 50, defaultSeed))
	if len(t1) < 100 {
		t.Fatal("table1 render too short")
	}
	t2 := renderTable2("Table 2", cpu.MeasureTable2(cpu.Models, 20, defaultSeed))
	if len(t2) < 100 {
		t.Fatal("table2 render too short")
	}
}

func TestNCAPThresholdBetweenLowAndMediumPeaks(t *testing.T) {
	for _, p := range workload.Profiles() {
		th := ncapThreshold(p)
		lowPeak := p.Burst.PeakRate(p.LowRPS)
		medPeak := p.Burst.PeakRate(p.MediumRPS)
		if th <= lowPeak {
			t.Errorf("%s: NCAP threshold %f below low peak %f (would boost at low load)",
				p.Name, th, lowPeak)
		}
		if th >= medPeak {
			t.Errorf("%s: NCAP threshold %f above medium peak %f (would miss medium bursts)",
				p.Name, th, medPeak)
		}
	}
}
