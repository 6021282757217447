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
	"flag"
	"fmt"
	"os"

	"nmapsim/internal/experiments"
	"nmapsim/internal/workload"
)

func main() {
	app := flag.String("app", "memcached", "workload profile: memcached or nginx")
	seed := flag.Uint64("seed", 1001, "profiling run seed")
	flag.Parse()

	prof, ok := workload.ProfileByName(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "nmapprofile: unknown app %q\n", *app)
		os.Exit(2)
	}
	th := experiments.ProfiledThresholds(prof, *seed)
	fmt.Printf("profile: %s (SLO %.1fms, profiling load %.0f RPS)\n",
		prof.Name, prof.SLO.Millis(), prof.HighRPS)
	fmt.Printf("NI_TH = %.0f polling-mode packets per decision window\n", th.NITh)
	fmt.Printf("CU_TH = %.3f polling-to-interrupt packet ratio\n", th.CUTh)
}
