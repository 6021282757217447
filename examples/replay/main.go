// Example: replay a recorded arrival trace through the simulated server
// instead of the synthetic burst generator — the path for testing NMAP
// against production traffic patterns.
//
// The example builds a small synthetic "recorded" trace (a sharp burst
// followed by a gentle one), replays it in a loop under ondemand and
// NMAP, and prints both policies' tail latency and energy.
package main

import (
	"fmt"
	"log"
	"strings"

	"nmapsim/internal/core"
	"nmapsim/internal/governor"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// buildTrace fabricates a 100ms trace: a sharp 20ms burst at 1.6M RPS,
// a 10ms lull, then a gentler 30ms burst at 150K RPS.
func buildTrace() []workload.TraceEntry {
	var b strings.Builder
	t := 0.0
	emit := func(until, gapUs float64) {
		for ; t < until; t += gapUs {
			fmt.Fprintf(&b, "%.3f\n", t)
		}
	}
	emit(20_000, 1000.0/1600) // 1.6M RPS for 20ms
	t = 30_000                // 10ms silence
	emit(60_000, 1000.0/150)  // 150K RPS for 30ms
	entries, err := workload.ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		log.Fatal(err)
	}
	return entries
}

func run(policy string) {
	prof := workload.Memcached()
	cfg := server.Config{
		Seed:     11,
		Profile:  prof,
		RPS:      1, // unused: the replayer drives arrivals
		Warmup:   100 * sim.Millisecond,
		Duration: 900 * sim.Millisecond,
	}
	idle, _ := governor.NewIdlePolicy("menu")
	s := server.New(cfg, idle)
	// Disarm the synthetic generator and drive the NIC from the trace.
	s.Gen.Stop()
	rp := &workload.Replayer{
		Eng:        s.Eng,
		RNG:        sim.NewRNG(99),
		Profile:    prof,
		Trace:      buildTrace(),
		LoopPeriod: 100 * sim.Millisecond,
		Deliver:    s.Ingress,
	}
	switch policy {
	case "ondemand":
		s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model}))
	case "nmap":
		n := core.NewNMAP(s.Eng, s.Proc,
			governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model}),
			core.DefaultThresholds())
		s.AttachPolicy(n)
	}
	rp.Start()
	res, err := s.Run()
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Printf("%-9s p99=%7.3fms violated=%-5v energy=%6.1fJ\n",
		policy, res.Summary.P99.Millis(), res.Violated, res.EnergyJ)
}

func main() {
	fmt.Println("replaying a recorded two-burst trace (looped, 1s):")
	run("ondemand")
	run("nmap")
}
