// Example: implementing a custom frequency governor against the
// library's internal interfaces and racing it against ondemand on the
// bursty memcached workload.
//
// The custom policy is a simple "two-step" governor: P0 whenever the
// sampled utilisation exceeds 50%, the slowest state otherwise — a
// caricature that samples as often as ondemand and so, like it, misses
// the burst fronts at high load.
package main

import (
	"fmt"

	"nmapsim/internal/governor"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// twoStep is the custom governor: it implements governor.CPUGovernor.
type twoStep struct{ maxP int }

func (g twoStep) Name() string { return "two-step" }

func (g twoStep) Decide(_ int, u governor.UtilSample) int {
	if u.Busy > 0.5 {
		return 0
	}
	return g.maxP
}

func run(attach func(s *server.Server) server.Policy, label string) {
	cfg := server.Config{
		Seed:     42,
		Profile:  workload.Memcached(),
		Level:    workload.High,
		Warmup:   200 * sim.Millisecond,
		Duration: 800 * sim.Millisecond,
	}
	idle, _ := governor.NewIdlePolicy("menu")
	s := server.New(cfg, idle)
	s.AttachPolicy(attach(s))
	res, err := s.Run()
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Printf("%-10s p99=%7.3fms violated=%-5v energy=%6.1fJ transitions=%d\n",
		label, res.Summary.P99.Millis(), res.Violated, res.EnergyJ, res.Transitions)
}

func main() {
	fmt.Println("custom two-step governor vs ondemand (memcached, high load):")
	run(func(s *server.Server) server.Policy {
		return governor.NewStack(s.Eng, s.Proc, twoStep{maxP: s.Cfg.Model.MaxP()})
	}, "two-step")
	run(func(s *server.Server) server.Policy {
		return governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model})
	}, "ondemand")
}
