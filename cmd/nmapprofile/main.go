// Command nmapprofile prints the NI_TH and CU_TH that the offline NMAP
// threshold profiling of §4.2 derives for a workload profile. The
// profiling seeds the harness uses, 1000–1003, are read from the
// committed table in internal/experiments (regenerate it with `make
// thresholds`); any other seed runs the profiling.
//
// Usage:
//
//	nmapprofile [-app memcached|nginx] [-seed N]
package main

import (
	"os"

	"nmapsim/internal/cli"
)

func main() { os.Exit(cli.Profile(os.Args[1:], os.Stdout, os.Stderr)) }
