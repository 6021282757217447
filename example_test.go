package nmapsim_test

import (
	"fmt"

	"nmapsim"
)

// The minimal NMAP run: bursty memcached at the paper's high load on
// the simulated Xeon Gold 6134, NMAP governor, menu idle policy.
func ExampleScenario_Run() {
	res, err := nmapsim.Scenario{
		App:        "memcached",
		Policy:     "nmap",
		Load:       "high",
		Seed:       42,
		WarmupMs:   100,
		DurationMs: 300,
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("SLO %.0fms violated: %v\n", res.SLOMs, res.Violated)
	// Output: SLO 1ms violated: false
}

// Comparing policies on one configuration: the headline result is that
// NMAP keeps the SLO that ondemand misses, at far less energy than the
// performance governor.
func ExampleCompare() {
	out, err := nmapsim.Compare(
		nmapsim.Scenario{App: "memcached", Load: "high", Seed: 42, WarmupMs: 100, DurationMs: 300},
		"ondemand", "performance", "nmap")
	if err != nil {
		panic(err)
	}
	fmt.Printf("ondemand violated: %v\n", out["ondemand"].Violated)
	fmt.Printf("nmap violated: %v\n", out["nmap"].Violated)
	fmt.Printf("nmap cheaper than performance: %v\n",
		out["nmap"].EnergyJ < out["performance"].EnergyJ)
	// Output:
	// ondemand violated: true
	// nmap violated: false
	// nmap cheaper than performance: true
}

// The §4.2 offline profiling step, exposed directly.
func ExampleProfileThresholds() {
	th, err := nmapsim.ProfileThresholds("memcached", 1001)
	if err != nil {
		panic(err)
	}
	fmt.Printf("thresholds positive: %v\n", th.NITh > 0 && th.CUTh > 0)
	// Output: thresholds positive: true
}

// Quickstart: one bursty memcached scenario under NMAP with the
// headline numbers — tail latency against the SLO and package energy —
// then the low-load comparison against performance and ondemand.
func Example_quickstart() {
	res, err := nmapsim.Scenario{
		App:        "memcached",
		Policy:     "nmap",
		Idle:       "menu",
		Load:       "high",
		Seed:       7,
		WarmupMs:   100,
		DurationMs: 300,
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("NMAP on bursty memcached at 750K RPS (8-core Xeon Gold 6134 model):")
	fmt.Printf("  P50 latency     %.3f ms\n", res.P50)
	fmt.Printf("  P99 latency     %.3f ms  (SLO %.0f ms, violated: %v)\n",
		res.P99, res.SLOMs, res.Violated)
	fmt.Printf("  over-SLO        %.2f %% of %d requests\n", res.FracOverSLO*100, res.Requests)
	fmt.Printf("  package energy  %.2f J (%.1f W average)\n", res.EnergyJ, res.AvgPowerW)
	fmt.Printf("  V/F transitions %d\n", res.Transitions)

	cmp, err := nmapsim.Compare(
		nmapsim.Scenario{App: "memcached", Load: "low", Seed: 7, WarmupMs: 100, DurationMs: 300},
		"performance", "ondemand", "nmap")
	if err != nil {
		panic(err)
	}
	perf := cmp["performance"]
	fmt.Println("Low load (30K RPS) comparison:")
	for _, name := range []string{"performance", "ondemand", "nmap"} {
		r := cmp[name]
		fmt.Printf("  %-12s p99=%.3fms violated=%-5v energy=%.2fJ (%+.1f%% vs performance)\n",
			name, r.P99, r.Violated, r.EnergyJ, (r.EnergyJ/perf.EnergyJ-1)*100)
	}
	// Output:
	// NMAP on bursty memcached at 750K RPS (8-core Xeon Gold 6134 model):
	//   P50 latency     0.232 ms
	//   P99 latency     0.607 ms  (SLO 1 ms, violated: false)
	//   over-SLO        0.00 % of 224941 requests
	//   package energy  16.05 J (53.5 W average)
	//   V/F transitions 104
	// Low load (30K RPS) comparison:
	//   performance  p99=0.069ms violated=false energy=7.80J (+0.0% vs performance)
	//   ondemand     p99=0.076ms violated=false energy=5.22J (-33.1% vs performance)
	//   nmap         p99=0.076ms violated=false energy=5.22J (-33.1% vs performance)
}

// The memcached evaluation in miniature: every V/F governor at every
// load level, one Compare per load, with SLO verdicts and energy
// normalised to the performance governor (the Fig 12/13 view at a short
// window; `nmapsim fig12` runs the full matrix).
func ExampleCompare_memcached() {
	policies := []string{"intel_powersave", "ondemand", "performance", "nmap-simpl", "nmap"}
	fmt.Println("memcached (SLO 1ms): P99 and energy by governor and load")
	fmt.Printf("%-16s %-8s %9s %8s %9s %14s\n",
		"policy", "load", "p99(ms)", "p99/SLO", "violated", "energy vs perf")
	for _, load := range []string{"low", "medium", "high"} {
		out, err := nmapsim.Compare(
			nmapsim.Scenario{App: "memcached", Load: load, Seed: 42, WarmupMs: 50, DurationMs: 200},
			policies...)
		if err != nil {
			panic(err)
		}
		perf := out["performance"]
		for _, pol := range policies {
			r := out[pol]
			fmt.Printf("%-16s %-8s %9.3f %8.2f %9v %13.1f%%\n",
				pol, load, r.P99, r.P99/r.SLOMs, r.Violated, (r.EnergyJ/perf.EnergyJ-1)*100)
		}
	}
	// Output:
	// memcached (SLO 1ms): P99 and energy by governor and load
	// policy           load       p99(ms)  p99/SLO  violated energy vs perf
	// intel_powersave  low          0.076     0.08     false         -32.7%
	// ondemand         low          0.077     0.08     false         -33.0%
	// performance      low          0.070     0.07     false           0.0%
	// nmap-simpl       low          0.077     0.08     false         -33.0%
	// nmap             low          0.077     0.08     false         -33.0%
	// intel_powersave  medium       0.186     0.19     false         -28.1%
	// ondemand         medium       0.781     0.78     false         -23.6%
	// performance      medium       0.065     0.07     false           0.0%
	// nmap-simpl       medium       0.761     0.76     false         -23.6%
	// nmap             medium       0.066     0.07     false         -14.0%
	// intel_powersave  high        20.506    20.51      true         -11.5%
	// ondemand         high         6.559     6.56      true         -16.1%
	// performance      high         0.870     0.87     false           0.0%
	// nmap-simpl       high         2.340     2.34      true         -14.0%
	// nmap             high         0.868     0.87     false         -12.3%
}

// The nginx side of the evaluation, one Compare per load, and the
// profiled NMAP thresholds for nginx (the §4.2 procedure). The Fig 16
// load-switching comparison against Parties is `nmapsim fig16`.
func ExampleCompare_nginx() {
	policies := []string{"intel_powersave", "ondemand", "performance", "nmap"}
	fmt.Println("nginx (SLO 5ms): governor comparison")
	fmt.Printf("%-16s %-8s %9s %9s %10s\n", "policy", "load", "p99(ms)", "violated", "energy(J)")
	for _, load := range []string{"low", "medium", "high"} {
		out, err := nmapsim.Compare(
			nmapsim.Scenario{App: "nginx", Load: load, Seed: 42, WarmupMs: 100, DurationMs: 300},
			policies...)
		if err != nil {
			panic(err)
		}
		for _, pol := range policies {
			r := out[pol]
			fmt.Printf("%-16s %-8s %9.3f %9v %10.2f\n", pol, load, r.P99, r.Violated, r.EnergyJ)
		}
	}
	th, err := nmapsim.ProfileThresholds("nginx", 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("profiled NMAP thresholds for nginx: NI_TH=%.0f CU_TH=%.3f\n", th.NITh, th.CUTh)
	// Output:
	// nginx (SLO 5ms): governor comparison
	// policy           load       p99(ms)  violated  energy(J)
	// intel_powersave  low          0.470     false       6.41
	// ondemand         low          0.602     false       6.97
	// performance      low          0.209     false       9.67
	// nmap             low          0.231     false       7.77
	// intel_powersave  medium      12.467      true       8.72
	// ondemand         medium       4.273     false      10.43
	// performance      medium       0.755     false      13.06
	// nmap             medium       0.789     false      11.33
	// intel_powersave  high        16.628      true       9.24
	// ondemand         high         6.967      true      10.98
	// performance      high         2.536     false      13.71
	// nmap             high         2.503     false      12.14
	// profiled NMAP thresholds for nginx: NI_TH=229 CU_TH=177.429
}
