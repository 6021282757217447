// Command nmapfuzz is the standalone configuration fuzzer: it draws
// random-but-valid server configurations, runs each one under the
// invariant auditor, and shrinks any violating configuration to a
// minimal JSON reproducer on disk.
//
// Usage:
//
//	nmapfuzz [-n COUNT] [-seed BASE] [-parallel N] [-out DIR] [-shrink BUDGET]
//	nmapfuzz -repro FILE
//
// The exit status is non-zero iff any run violated an invariant (or a
// reproducer could not be written). Watchdog aborts are expected
// outcomes — some specs arm MaxEvents on purpose — and are only
// reported in the summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"nmapsim/internal/fuzzer"
	"nmapsim/internal/sim"
)

var (
	count    = flag.Int("n", 200, "number of random configurations to run")
	seed     = flag.Uint64("seed", 1, "base seed for the configuration stream")
	workers  = flag.Int("parallel", 0, "worker goroutines (0 = one per CPU)")
	outDir   = flag.String("out", "fuzz-failures", "directory for minimized JSON reproducers")
	budget   = flag.Int("shrink", 64, "max re-runs spent shrinking each failure")
	repro    = flag.String("repro", "", "re-run a saved reproducer spec instead of fuzzing")
	verbose  = flag.Bool("v", false, "print every spec as it runs")
	failures atomic.Int64
	aborted  atomic.Int64
)

// fuzzFlags is every numeric knob the CLI validates before running.
type fuzzFlags struct {
	count, parallel int
}

// validateFlags rejects nonsensical flag values with errors naming the
// flag, before any work starts.
func validateFlags(f fuzzFlags) error {
	if f.count < 0 {
		return fmt.Errorf("-n must be >= 0, got %d", f.count)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", f.parallel)
	}
	return nil
}

func main() {
	flag.Parse()
	if err := validateFlags(fuzzFlags{count: *count, parallel: *workers}); err != nil {
		fmt.Fprintln(os.Stderr, "nmapfuzz:", err)
		os.Exit(2)
	}
	if *repro != "" {
		os.Exit(runRepro(*repro))
	}
	os.Exit(fuzz())
}

func runRepro(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmapfuzz:", err)
		return 2
	}
	sp, err := fuzzer.UnmarshalSpec(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmapfuzz:", err)
		return 2
	}
	out := fuzzer.Check(sp)
	if out.Aborted {
		fmt.Println("watchdog abort (expected for specs arming max_events)")
	}
	if out.Failed() {
		fmt.Printf("REPRODUCED: %v\n", out.Err)
		if out.Report != nil {
			fmt.Print(out.Report)
		}
		return 1
	}
	fmt.Println("clean: every audited invariant held")
	if out.Report != nil {
		fmt.Print(out.Report)
	}
	return 0
}

func fuzz() int {
	n := *workers
	if n == 0 {
		n = runtime.NumCPU()
	}
	// Pre-draw the spec stream serially so the set of configurations is a
	// pure function of -seed and -n, independent of worker scheduling.
	rng := sim.NewRNG(*seed)
	specs := make([]fuzzer.Spec, *count)
	for i := range specs {
		specs[i] = fuzzer.Generate(rng)
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runOne(i, specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()

	fmt.Printf("nmapfuzz: %d configs, %d watchdog aborts, %d violations\n",
		*count, aborted.Load(), failures.Load())
	if failures.Load() > 0 {
		fmt.Printf("nmapfuzz: minimized reproducers written to %s\n", *outDir)
		return 1
	}
	return 0
}

func runOne(i int, sp fuzzer.Spec) {
	if *verbose {
		fmt.Printf("[%4d] seed=%d model=%s policy=%s idle=%s level=%s\n",
			i, sp.Seed, sp.Model, sp.Policy, sp.Idle, sp.Level)
	}
	out := fuzzer.Check(sp)
	if out.Aborted {
		aborted.Add(1)
	}
	if !out.Failed() {
		return
	}
	failures.Add(1)
	fmt.Fprintf(os.Stderr, "[%4d] VIOLATION: %v\n", i, out.Err)
	min := fuzzer.Shrink(sp, func(s fuzzer.Spec) bool { return fuzzer.Check(s).Failed() }, *budget)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nmapfuzz:", err)
		return
	}
	path := filepath.Join(*outDir, fmt.Sprintf("repro-%d-seed%d.json", i, sp.Seed))
	if err := os.WriteFile(path, fuzzer.MarshalSpec(min), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nmapfuzz:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "[%4d] minimized reproducer: %s\n", i, path)
}
