package experiments

// Shape-regression tests: these pin the *qualitative* results of the
// paper that the reproduction is calibrated to — who violates the SLO
// at which load, and how the energy ladder orders. They run the real
// experiment pipeline at Quick quality (300ms windows), so they are the
// slowest tests in the repository; `go test -short` skips them.

import (
	"testing"

	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

func shapeRun(t *testing.T, prof *workload.Profile, lvl workload.Level, policy string) server.Result {
	t.Helper()
	res, err := runSpec(new(Harness), Spec{
		Policy: policy,
		Idle:   "menu",
		Cfg: server.Config{
			Seed:     42,
			Profile:  prof,
			Level:    lvl,
			Warmup:   200 * sim.Millisecond,
			Duration: 500 * sim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestShapeMemcachedHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	prof := workload.Memcached()
	ondemand := shapeRun(t, prof, workload.High, "ondemand")
	perf := shapeRun(t, prof, workload.High, "performance")
	simpl := shapeRun(t, prof, workload.High, "nmap-simpl")
	nm := shapeRun(t, prof, workload.High, "nmap")

	// Paper §6.2: ondemand violates the SLO by a large factor at high
	// load; performance and NMAP satisfy it; NMAP-simpl fails at high.
	if !ondemand.Violated || ondemand.Summary.P99 < 3*prof.SLO {
		t.Errorf("ondemand high P99=%v, want a strong violation of the 1ms SLO", ondemand.Summary.P99)
	}
	if perf.Violated {
		t.Errorf("performance governor violated at high load: %v", perf)
	}
	if nm.Violated {
		t.Errorf("NMAP violated at high load: %v", nm)
	}
	if !simpl.Violated {
		t.Errorf("NMAP-simpl satisfied the SLO at high load (paper: it fails): %v", simpl)
	}
	// Energy ladder: NMAP well below performance, near ondemand.
	if nm.EnergyJ >= perf.EnergyJ {
		t.Errorf("NMAP energy %.1fJ >= performance %.1fJ", nm.EnergyJ, perf.EnergyJ)
	}
	saving := 1 - nm.EnergyJ/perf.EnergyJ
	if saving < 0.05 {
		t.Errorf("NMAP energy saving vs performance = %.1f%%, want >5%% (paper: 9.1%%)", saving*100)
	}
}

func TestShapeMemcachedLowLoadEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	prof := workload.Memcached()
	perf := shapeRun(t, prof, workload.Low, "performance")
	nm := shapeRun(t, prof, workload.Low, "nmap")
	if nm.Violated || perf.Violated {
		t.Fatal("low load must satisfy the SLO under both policies")
	}
	saving := 1 - nm.EnergyJ/perf.EnergyJ
	// Paper: 35.7% saving at low load; accept the 25-45% band.
	if saving < 0.25 || saving > 0.45 {
		t.Errorf("NMAP low-load energy saving = %.1f%% vs performance, want ~33%% (paper 35.7%%)", saving*100)
	}
}

func TestShapeNginxHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	prof := workload.Nginx()
	ondemand := shapeRun(t, prof, workload.High, "ondemand")
	ip := shapeRun(t, prof, workload.High, "intel_powersave")
	perf := shapeRun(t, prof, workload.High, "performance")
	nm := shapeRun(t, prof, workload.High, "nmap")

	if !ondemand.Violated {
		t.Errorf("ondemand satisfied nginx high load (paper: violates): %v", ondemand)
	}
	if !ip.Violated || ip.Summary.P99 < ondemand.Summary.P99 {
		t.Errorf("intel_powersave must violate worse than ondemand: %v vs %v",
			ip.Summary.P99, ondemand.Summary.P99)
	}
	if perf.Violated || nm.Violated {
		t.Errorf("performance/NMAP must satisfy nginx high load: perf=%v nmap=%v",
			perf.Summary.P99, nm.Summary.P99)
	}
	if nm.EnergyJ >= perf.EnergyJ {
		t.Errorf("NMAP energy %.1f >= performance %.1f", nm.EnergyJ, perf.EnergyJ)
	}
}

func TestShapeSleepPoliciesEnergyOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	prof := workload.Memcached()
	run := func(idle string) server.Result {
		res, err := runSpec(new(Harness), Spec{
			Policy: "performance",
			Idle:   idle,
			Cfg: server.Config{
				Seed: 42, Profile: prof, Level: workload.Low,
				Warmup: 200 * sim.Millisecond, Duration: 500 * sim.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	menu := run("menu")
	disable := run("disable")
	c6 := run("c6only")
	// Fig 8 shape: disable wastes energy (paper +53.2%), c6only saves
	// (paper -10.3%), and no sleep policy hurts the ms-scale tail.
	if disable.EnergyJ <= menu.EnergyJ*1.2 {
		t.Errorf("disable %.1fJ vs menu %.1fJ: want a large penalty (paper +53%%)",
			disable.EnergyJ, menu.EnergyJ)
	}
	if c6.EnergyJ >= menu.EnergyJ {
		t.Errorf("c6only %.1fJ >= menu %.1fJ: want a saving (paper -10.3%%)",
			c6.EnergyJ, menu.EnergyJ)
	}
	for name, r := range map[string]server.Result{"menu": menu, "disable": disable, "c6only": c6} {
		if r.Violated {
			t.Errorf("%s violated the SLO at low load — sleep policy must not hurt ms-scale tails", name)
		}
	}
}

func TestShapeNCAPComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	prof := workload.Memcached()
	ncap := shapeRun(t, prof, workload.High, "ncap")
	nm := shapeRun(t, prof, workload.High, "nmap")
	// §6.3: both satisfy the SLO at high load; NMAP uses less energy
	// (per-core vs chip-wide decisions).
	if ncap.Violated {
		t.Errorf("NCAP violated at high load (it is tuned to satisfy it): %v", ncap.Summary.P99)
	}
	if nm.Violated {
		t.Errorf("NMAP violated at high load: %v", nm.Summary.P99)
	}
	if nm.EnergyJ >= ncap.EnergyJ {
		t.Errorf("NMAP energy %.1fJ >= NCAP %.1fJ (paper: NMAP saves 4-15%%)",
			nm.EnergyJ, ncap.EnergyJ)
	}
}

func TestShapeSwitchingLoadNMAPvsParties(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	res, err := new(Harness).fig16(Quick)
	if err != nil {
		t.Fatal(err)
	}
	var nm, parties Fig16Result
	for _, r := range res {
		if r.Policy == "nmap" {
			nm = r
		} else {
			parties = r
		}
	}
	// Fig 16: Parties misses bursts (paper 26.6% over SLO), NMAP stays
	// near-zero (paper 0.18%).
	if nm.FracOverSLO > 0.05 {
		t.Errorf("NMAP over-SLO fraction %.2f%% under switching load, want <5%%", nm.FracOverSLO*100)
	}
	if parties.FracOverSLO < 5*nm.FracOverSLO || parties.FracOverSLO < 0.03 {
		t.Errorf("Parties over-SLO %.2f%% vs NMAP %.2f%%: want Parties much worse",
			parties.FracOverSLO*100, nm.FracOverSLO*100)
	}
}

func TestShapePerRequestDVFSPaysReTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	cells, err := new(Harness).ablationPerRequest(Quick)
	if err != nil {
		t.Fatal(err)
	}
	var nm, pr AblationCell
	for _, c := range cells {
		switch c.Name {
		case "nmap":
			nm = c
		case "perrequest":
			pr = c
		}
	}
	// §5.1: a per-request policy attempts orders of magnitude more V/F
	// writes than the hardware ever reflects — each new write supersedes
	// the previous one inside the ~520µs re-transition window, so its
	// per-request decisions are mostly lost.
	if pr.Attempts == 0 {
		t.Fatal("per-request attempt counter not captured")
	}
	if pr.Attempts < 100*pr.Transitions {
		t.Errorf("per-request writes attempted %d vs reflected %d: want >=100x gap",
			pr.Attempts, pr.Transitions)
	}
	// And despite all those decisions it saves no energy relative to the
	// coarse-grained NMAP (within 10%).
	if pr.EnergyJ < 0.9*nm.EnergyJ {
		t.Errorf("per-request energy %.1fJ far below NMAP %.1fJ — re-transition model broken",
			pr.EnergyJ, nm.EnergyJ)
	}
}

func TestShapeIntelPowersaveWithDisablePegsP0(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	// §6.2 footnote: with sleep states disabled, intel_powersave reads
	// 100% CC0 residency and always runs at P0 — so it satisfies the
	// SLO (at performance-level energy).
	prof := workload.Memcached()
	res, err := runSpec(new(Harness), Spec{
		Policy: "intel_powersave",
		Idle:   "disable",
		Cfg: server.Config{
			Seed: 42, Profile: prof, Level: workload.High,
			Warmup: 200 * sim.Millisecond, Duration: 500 * sim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("intel_powersave+disable violated (P99=%v); footnote behaviour broken", res.Summary.P99)
	}
	withMenu := shapeRun(t, prof, workload.High, "intel_powersave")
	if !withMenu.Violated {
		t.Errorf("intel_powersave+menu satisfied high load (paper: worst violator)")
	}
}
