package cli

import (
	"fmt"
	"io"
	"os"
	"strings"

	"nmapsim/internal/experiments"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Report is the nmapreport command: a policy × load matrix written as
// JSON records (see cmd/nmapreport).
func Report(args []string, stdout, stderr io.Writer) int {
	c := command{"nmapreport", stdout, stderr}
	fs := c.flagSet()
	app := fs.String("app", "both", "memcached, nginx or both")
	policies := fs.String("policies", "ondemand,performance,nmap", "comma-separated policy list")
	idle := fs.String("idle", "menu", "idle policy")
	seeds := fs.Int("seeds", 3, "seeds per cell")
	durMS := fs.Int("dur", 500, "measured window per run, milliseconds")
	withCDF := fs.Bool("cdf", false, "include latency CDFs in the records")
	out := fs.String("o", "", "output file (default stdout)")
	// -quarantine is deliberately not offered here: every record in the
	// JSON output must carry a real result, so an exhausted cell fails
	// the run instead of leaving a hole in the matrix.
	hf := registerHarnessFlags(fs, map[string]string{
		"parallel":           "",
		"faults":             "fault-injection spec applied to every cell, e.g. loss=0.01,corecrash=1@250ms:100ms",
		"audit":              "run every cell under the invariant auditor (fails the run on any violation)",
		"audit-report":       "with -audit: print the per-rule check/violation summary to stderr after the run",
		"stream":             "",
		"checkpoint":         "journal completed matrix cells to FILE and resume from it: cells already journaled are not re-run",
		"cell-retries":       "re-run a failing matrix cell up to N times with exponential backoff before giving up (0 = fail fast)",
		"cell-retry-backoff": "",
		"cell-deadline":      "",
	})
	if code, done := parse(fs, args); done {
		return code
	}
	if *seeds <= 0 {
		return c.exit(2, fmt.Errorf("-seeds must be positive, got %d", *seeds))
	}
	if *durMS <= 0 {
		return c.exit(2, fmt.Errorf("-dur must be a positive millisecond count, got %d", *durMS))
	}
	h, err := hf.harness()
	if err != nil {
		return c.exit(2, err)
	}
	profs := workload.Profiles()
	if *app != "both" {
		prof, ok := workload.ProfileByName(*app)
		if !ok {
			return c.exit(2, fmt.Errorf("unknown app %q", *app))
		}
		profs = []*workload.Profile{prof}
	}
	pols := strings.Split(*policies, ",")
	for i, pol := range pols {
		pols[i] = strings.TrimSpace(pol)
	}
	if err := checkPolicies(pols, *idle); err != nil {
		return c.exit(2, err)
	}
	if err := hf.openJournal(c, h); err != nil {
		return c.exit(1, err)
	}
	if h.Journal != nil {
		defer h.Journal.Close()
	}

	var specs []experiments.Spec
	for _, prof := range profs {
		for _, lvl := range workload.Levels {
			for _, pol := range pols {
				for s := 0; s < *seeds; s++ {
					specs = append(specs, experiments.Spec{
						Policy: pol,
						Idle:   *idle,
						Cfg: server.Config{
							Seed:     42 + uint64(s),
							Profile:  prof,
							Level:    lvl,
							Warmup:   200 * sim.Millisecond,
							Duration: sim.Duration(*durMS) * sim.Millisecond,
						},
					})
				}
			}
		}
	}
	results, err := h.RunSpecs(specs)
	hf.reportAudit(c, h)
	if err != nil {
		return c.exit(1, err)
	}
	records := make([]experiments.Record, len(specs))
	for i, res := range results {
		spec := specs[i]
		records[i] = experiments.NewRecord(spec, res, *withCDF)
		fmt.Fprintf(stderr, "done %s/%s/%s seed=%d p99=%.3fms\n",
			spec.Cfg.Profile.Name, spec.Cfg.Level, spec.Policy, spec.Cfg.Seed,
			res.Summary.P99.Millis())
	}

	if *out == "" {
		err = experiments.WriteJSON(stdout, records)
	} else {
		err = writeJSONFile(*out, records)
	}
	if err != nil {
		return c.exit(1, err)
	}
	return 0
}

// writeJSONFile writes the records to a new file at path.
func writeJSONFile(path string, records []experiments.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSON(f, records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
