// Command nmapsim runs the NMAP-reproduction experiment harness: one
// sub-command per table/figure of the paper's evaluation, plus the
// ablations described in DESIGN.md.
//
// Usage:
//
//	nmapsim [-quick] [-faults SPEC] [-rto DUR] [-retries N] [-nodes N] [-route NAME]
//	        [-cpuprofile FILE] [-memprofile FILE] <experiment>
//	nmapsim -list
//
// Experiments: fig2 fig3 fig4 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16 fig-resilience fig-cluster fig-grayfail table1
// table2 ablation-perrequest ablation-thresholds ablation-chipwide all
//
// fig-cluster simulates a fleet of NMAP nodes behind a health-checked
// router (-nodes, -route, -hedge). Node-level faults come from the same
// -faults spec as everything else, e.g. -faults nodecrash=1@250ms:100ms
// or partition=fe|1@250ms:100ms,linkslow=1@100ms:50ms:8; an interrupt
// (Ctrl-C) mid-run renders the partial figure — every node's results so
// far, in input order — before exiting non-zero. fig-grayfail degrades
// one node's link (slow-downs, a one-way cut, a lossy window) and
// compares naive, flap-damped, and hedged front ends over the modeled
// interconnect.
package main

import (
	"os"

	"nmapsim/internal/cli"
)

func main() { os.Exit(cli.Sim(os.Args[1:], os.Stdout, os.Stderr)) }
