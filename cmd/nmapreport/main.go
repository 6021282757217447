// Command nmapreport runs a policy × load matrix and writes the results
// as JSON records (experiments.Record) for archiving or plotting with
// external tools. Multiple seeds per cell give run-to-run confidence.
//
// Usage:
//
//	nmapreport [-app memcached|nginx|both] [-policies p1,p2,...]
//	           [-seeds N] [-dur MS] [-cdf] [-faults SPEC] [-audit] [-stream] [-o FILE]
//	           [-checkpoint FILE] [-cell-retries N] [-cell-retry-backoff DUR]
//	           [-cell-deadline DUR]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// reportFlags holds the numeric knobs validated before any cell runs.
type reportFlags struct {
	seeds, durMS, parallel int
	cellRetries            int
	cellBackoff            time.Duration
	cellDeadline           time.Duration
}

// validateFlags rejects nonsensical flag values with errors naming the
// flag. Table-tested in main_test.go.
func validateFlags(f reportFlags) error {
	if f.seeds <= 0 {
		return fmt.Errorf("-seeds must be positive, got %d", f.seeds)
	}
	if f.durMS <= 0 {
		return fmt.Errorf("-dur must be a positive millisecond count, got %d", f.durMS)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", f.parallel)
	}
	if f.cellRetries < 0 {
		return fmt.Errorf("-cell-retries must be >= 0, got %d", f.cellRetries)
	}
	if f.cellBackoff < 0 {
		return fmt.Errorf("-cell-retry-backoff must be >= 0, got %v", f.cellBackoff)
	}
	if f.cellDeadline < 0 {
		return fmt.Errorf("-cell-deadline must be >= 0, got %v", f.cellDeadline)
	}
	return nil
}

func main() {
	app := flag.String("app", "both", "memcached, nginx or both")
	policies := flag.String("policies", "ondemand,performance,nmap", "comma-separated policy list")
	idle := flag.String("idle", "menu", "idle policy")
	seeds := flag.Int("seeds", 3, "seeds per cell")
	durMS := flag.Int("dur", 500, "measured window per run, milliseconds")
	withCDF := flag.Bool("cdf", false, "include latency CDFs in the records")
	out := flag.String("o", "", "output file (default stdout)")
	parallel := flag.Int("parallel", 0,
		"simulation cells in flight at once (0 = one per CPU, 1 = serial)")
	faultSpec := flag.String("faults", "",
		"fault-injection spec applied to every cell, e.g. loss=0.01,corecrash=1@250ms:100ms")
	auditOn := flag.Bool("audit", false,
		"run every cell under the invariant auditor (fails the run on any violation)")
	auditReport := flag.Bool("audit-report", false,
		"with -audit: print the per-rule check/violation summary to stderr after the run")
	streamOn := flag.Bool("stream", false,
		"record latencies into the bounded streaming histogram (fixed 64KB/cell, ~0.1% quantile error) instead of the exact sample recorder")
	checkpoint := flag.String("checkpoint", "",
		"journal completed matrix cells to FILE and resume from it: cells already journaled are not re-run")
	cellRetries := flag.Int("cell-retries", 0,
		"re-run a failing matrix cell up to N times with exponential backoff before giving up (0 = fail fast)")
	cellBackoff := flag.Duration("cell-retry-backoff", time.Second,
		"delay before a failed cell's first retry; doubles per retry, capped at 10x")
	cellDeadline := flag.Duration("cell-deadline", 0,
		"wall-clock budget across all attempts of one cell, backoff included (0 = none)")
	flag.Parse()
	if err := validateFlags(reportFlags{
		seeds: *seeds, durMS: *durMS, parallel: *parallel,
		cellRetries: *cellRetries, cellBackoff: *cellBackoff,
		cellDeadline: *cellDeadline,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
		os.Exit(2)
	}
	experiments.SetParallelism(*parallel)
	// Quarantine is deliberately not offered here: every record in the
	// JSON output must carry a real result, so an exhausted cell fails
	// the run instead of leaving a hole in the matrix.
	if err := experiments.SetCellRetry(experiments.HarnessRetry{
		MaxRetries: *cellRetries,
		Backoff:    *cellBackoff,
		Deadline:   *cellDeadline,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
		os.Exit(2)
	}
	if *checkpoint != "" {
		j, err := experiments.OpenJournal(*checkpoint)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
			os.Exit(1)
		}
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "nmapreport: resuming, %d cell(s) already journaled in %s\n", n, *checkpoint)
		}
		defer j.Close()
		experiments.SetJournal(j)
	}
	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
		os.Exit(2)
	}
	experiments.SetInjection(fcfg, workload.RetryConfig{})
	if *auditOn || *auditReport {
		experiments.SetAudit(true)
	}
	experiments.SetStreaming(*streamOn)

	profs := workload.Profiles()
	if *app != "both" {
		prof, ok := workload.ProfileByName(*app)
		if !ok {
			fmt.Fprintf(os.Stderr, "nmapreport: unknown app %q\n", *app)
			os.Exit(2)
		}
		profs = []*workload.Profile{prof}
	}

	var specs []experiments.Spec
	for _, prof := range profs {
		for _, lvl := range workload.Levels {
			for _, pol := range strings.Split(*policies, ",") {
				pol = strings.TrimSpace(pol)
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
	results, err := experiments.RunSpecs(specs)
	if *auditReport {
		if rep := experiments.AuditReport(); rep != nil {
			fmt.Fprint(os.Stderr, rep)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
		os.Exit(1)
	}
	records := make([]experiments.Record, len(specs))
	for i, res := range results {
		spec := specs[i]
		records[i] = experiments.NewRecord(spec, res, *withCDF)
		fmt.Fprintf(os.Stderr, "done %s/%s/%s seed=%d p99=%.3fms\n",
			spec.Cfg.Profile.Name, spec.Cfg.Level, spec.Policy, spec.Cfg.Seed,
			res.Summary.P99.Millis())
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := experiments.WriteJSON(w, records); err != nil {
		fmt.Fprintf(os.Stderr, "nmapreport: %v\n", err)
		os.Exit(1)
	}
}
