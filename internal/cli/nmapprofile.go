package cli

import (
	"fmt"
	"io"

	"nmapsim/internal/experiments"
	"nmapsim/internal/workload"
)

// Profile is the nmapprofile command: the NI_TH and CU_TH that the §4.2
// threshold profiling derives for a workload profile (see
// cmd/nmapprofile).
func Profile(args []string, stdout, stderr io.Writer) int {
	c := command{"nmapprofile", stdout, stderr}
	fs := c.flagSet()
	app := fs.String("app", "memcached", "workload profile: memcached or nginx")
	seed := fs.Uint64("seed", 1001, "profiling run seed")
	if code, done := parse(fs, args); done {
		return code
	}
	prof, ok := workload.ProfileByName(*app)
	if !ok {
		return c.exit(2, fmt.Errorf("unknown app %q", *app))
	}
	th := experiments.ProfiledThresholds(prof, *seed)
	fmt.Fprintf(stdout, "profile: %s (SLO %.1fms, profiling load %.0f RPS)\n",
		prof.Name, prof.SLO.Millis(), prof.HighRPS)
	fmt.Fprintf(stdout, "NI_TH = %.0f polling-mode packets per decision window\n", th.NITh)
	fmt.Fprintf(stdout, "CU_TH = %.3f polling-to-interrupt packet ratio\n", th.CUTh)
	return 0
}
