package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nmapsim/internal/fuzzer"
	"nmapsim/internal/sim"
)

// Fuzz is the nmapfuzz command: it checks random-but-valid
// configurations under the invariant auditor as one batch of harness
// cells and shrinks each violating one to a minimal JSON reproducer
// (see cmd/nmapfuzz).
func Fuzz(args []string, stdout, stderr io.Writer) int {
	c := command{"nmapfuzz", stdout, stderr}
	fs := c.flagSet()
	count := fs.Int("n", 200, "number of random configurations to run")
	seed := fs.Uint64("seed", 1, "base seed for the configuration stream")
	outDir := fs.String("out", "fuzz-failures", "directory for minimized JSON reproducers")
	budget := fs.Int("shrink", 64, "max re-runs spent shrinking each failure")
	repro := fs.String("repro", "", "re-run a saved reproducer spec instead of fuzzing")
	verbose := fs.Bool("v", false, "print every spec as it runs")
	// -parallel is the only harness flag: the batch must arm no guard
	// ticker (see fuzzer.CheckAll).
	hf := registerHarnessFlags(fs, map[string]string{"parallel": "worker goroutines (0 = one per CPU)"})
	if code, done := parse(fs, args); done {
		return code
	}
	if *count < 0 {
		return c.exit(2, fmt.Errorf("-n must be >= 0, got %d", *count))
	}
	if *budget < 1 {
		return c.exit(2, fmt.Errorf("-shrink must be >= 1, got %d", *budget))
	}
	h, err := hf.harness()
	if err != nil {
		return c.exit(2, err)
	}
	if *repro != "" {
		return c.runRepro(*repro)
	}

	// The spec stream is a pure function of -seed and -n, and every line
	// is printed in input order, so the output does not depend on -parallel.
	rng := sim.NewRNG(*seed)
	specs := make([]fuzzer.Spec, *count)
	for i := range specs {
		specs[i] = fuzzer.Generate(rng)
	}
	outs := fuzzer.CheckAll(h, specs)
	aborted, failed := 0, 0
	for i, sp := range specs {
		if *verbose {
			fmt.Fprintf(stdout, "[%4d] seed=%d model=%s policy=%s idle=%s level=%s\n",
				i, sp.Seed, sp.Model, sp.Policy, sp.Idle, sp.Level)
		}
		if outs[i].Aborted {
			aborted++
		}
		if outs[i].Failed() {
			failed++
			fmt.Fprintf(stderr, "[%4d] VIOLATION: %v\n", i, outs[i].Err)
			c.writeRepro(i, sp, *budget, *outDir)
		}
	}
	fmt.Fprintf(stdout, "nmapfuzz: %d configs, %d watchdog aborts, %d violations\n", len(specs), aborted, failed)
	if failed > 0 {
		fmt.Fprintf(stdout, "nmapfuzz: minimized reproducers written to %s\n", *outDir)
		return 1
	}
	return 0
}

// writeRepro shrinks the failing spec i within budget re-runs and
// writes the result as a JSON reproducer under dir.
func (c command) writeRepro(i int, sp fuzzer.Spec, budget int, dir string) {
	min := fuzzer.Shrink(sp, func(s fuzzer.Spec) bool { return fuzzer.Check(s).Failed() }, budget)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.warnf("%v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-%d-seed%d.json", i, sp.Seed))
	if err := os.WriteFile(path, fuzzer.MarshalSpec(min), 0o644); err != nil {
		c.warnf("%v", err)
		return
	}
	fmt.Fprintf(c.stderr, "[%4d] minimized reproducer: %s\n", i, path)
}

// runRepro re-runs a saved reproducer: exit 1 if it still violates an
// invariant, 2 if it cannot be read.
func (c command) runRepro(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return c.exit(2, err)
	}
	sp, err := fuzzer.UnmarshalSpec(b)
	if err != nil {
		return c.exit(2, err)
	}
	out := fuzzer.Check(sp)
	if out.Aborted {
		fmt.Fprintln(c.stdout, "watchdog abort (expected for specs arming max_events)")
	}
	if out.Failed() {
		fmt.Fprintf(c.stdout, "REPRODUCED: %v\n", out.Err)
	} else {
		fmt.Fprintln(c.stdout, "clean: every audited invariant held")
	}
	if out.Report != nil {
		fmt.Fprint(c.stdout, out.Report)
	}
	if out.Failed() {
		return 1
	}
	return 0
}
