// Command nmapbench is an ad-hoc performance probe: the DES engine
// microbenchmarks (ns/op and allocs/op for the steady-state
// schedule/fire and cancel paths, plus the histogram percentile query),
// an end-to-end throughput probe (simulated seconds per wall-clock
// second and allocations per request on a warmed server), and the
// wall-clock of the Fig 12/13 quick-quality matrix run serially and
// with the parallel harness. Results are written as JSON (default
// BENCH_sim.json, untracked) so two local runs can be diffed. The repo's
// benchmark is the same-host A/B suite under benchmark/.
//
// Usage:
//
//	nmapbench [-o FILE] [-parallel N] [-best-of N] [-bench-time SIMSECONDS]
//	          [-micro-time SECONDS] [-cpuprofile FILE] [-memprofile FILE]
//
// Every fast metric is sampled -best-of times; the recorded ns/op is the
// MEDIAN across samples (the fastest is kept alongside), so a noisy host
// shows up as a wide spread instead of silently skewing the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"nmapsim/internal/experiments"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

type benchResult struct {
	// NsPerOp is the MEDIAN ns/op across the best-of samples — stable
	// against the one-sided scheduler noise of a shared host (a
	// preempted sample can only be slower, never faster), where the
	// previously recorded fastest-sample flaked the gate at up to 97%
	// observed spread.
	NsPerOp float64 `json:"ns_per_op"`
	// BestNsPerOp is the fastest sample, kept for reference.
	BestNsPerOp float64 `json:"ns_best,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SpreadPct is the run-to-run spread of ns/op across the samples,
	// (max-min)/min as a percentage: the noise floor the 20% regression
	// gate is competing with on this host.
	SpreadPct float64 `json:"ns_spread_pct,omitempty"`
	Samples   int     `json:"samples,omitempty"`
}

type baseline struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PGO names the profile the binary was built with (the -pgo build
	// setting), empty for a non-PGO build — so a baseline records which
	// codegen produced its numbers.
	PGO        string                 `json:"pgo,omitempty"`
	Engine     map[string]benchResult `json:"engine"`
	EndToEnd   endToEnd               `json:"end_to_end"`
	Fig12Quick fig12Times             `json:"fig12_quick"`
}

// pgoSetting returns the -pgo build setting baked into this binary by
// the toolchain, or "" for a non-PGO build.
func pgoSetting() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" {
				return s.Value
			}
		}
	}
	return ""
}

type fig12Times struct {
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Workers    int     `json:"parallel_workers"`
	Speedup    float64 `json:"speedup"`
	// Note explains why a field is absent or not comparable (for
	// example: the parallel timing and speedup are skipped when only
	// one worker is available, where "speedup" would only measure
	// harness overhead against a stale serial number).
	Note string `json:"note,omitempty"`
}

// endToEnd is the whole-simulator throughput probe: a warmed memcached
// server driven for a fixed span of simulated time. The recorded numbers
// are the fastest of the best-of samples (each sample is its own freshly
// warmed server, so a GC pause or scheduler hiccup in one sample cannot
// taint the baseline); SpreadPct reports the run-to-run spread.
type endToEnd struct {
	SimSeconds       float64 `json:"sim_seconds"`
	WallMs           float64 `json:"wall_ms"`
	SimPerWallSecond float64 `json:"sim_seconds_per_wall_second"`
	Requests         uint64  `json:"requests"`
	AllocsPerRequest float64 `json:"allocs_per_request"`
	SpreadPct        float64 `json:"throughput_spread_pct,omitempty"`
	Samples          int     `json:"samples,omitempty"`
}

func toResult(r testing.BenchmarkResult) benchResult {
	return benchResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// medianOf runs a microbenchmark several times and records the median
// ns/op (allocs are deterministic, so any run's count is canonical).
// Short samples of a ~5 ns operation swing wildly on a shared host, and
// that noise is one-sided — a preempted sample can only be slower —
// which made the previously recorded fastest-sample both optimistic and
// flaky under -compare. The median is robust to a minority of disturbed
// samples; the fastest and the full spread are recorded alongside so a
// reader can see the noise floor each verdict competed with.
func medianOf(n int, bench func() testing.BenchmarkResult) benchResult {
	r := toResult(bench())
	samples := make([]float64, n)
	samples[0] = r.NsPerOp
	for i := 1; i < n; i++ {
		samples[i] = toResult(bench()).NsPerOp
	}
	sort.Float64s(samples)
	r.BestNsPerOp = samples[0]
	r.NsPerOp = samples[(n-1)/2]
	if n%2 == 0 {
		r.NsPerOp = (samples[n/2-1] + samples[n/2]) / 2
	}
	r.Samples = n
	if samples[0] > 0 {
		r.SpreadPct = (samples[n-1]/samples[0] - 1) * 100
	}
	return r
}

func engineBenches(n int) map[string]benchResult {
	return map[string]benchResult{
		"EngineScheduleFire": medianOf(n, benchScheduleFire),
		"EngineCancel":       medianOf(n, benchCancel),
		"HistPercentile":     medianOf(n, benchHistPercentile),
	}
}

// The three engine microbenchmarks, mirroring the ones in the package
// test suites (internal/sim and internal/stats) so the baseline can be
// produced by a plain binary without -bench plumbing.

func benchScheduleFire() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 64; i++ {
			e.Schedule(sim.Duration(i%7), fn)
		}
		e.RunAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(sim.Duration(i%97), fn)
			e.RunAll()
		}
	})
}

func benchCancel() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 1024; i++ {
			e.Schedule(sim.Duration(1000+i), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := e.Schedule(sim.Duration(i%997), fn)
			if !ev.Cancel() {
				b.Fatal("cancel failed")
			}
		}
	})
}

func benchHistPercentile() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		h := stats.NewHist(100_000)
		r := sim.NewRNG(42)
		for i := 0; i < 100_000; i++ {
			h.Add(sim.Duration(r.Exp(500_000)))
		}
		h.P(0.5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.P(0.99) == 0 {
				b.Fatal("empty percentile")
			}
		}
	})
}

// measureEndToEnd warms a representative server (same configuration as
// the allocation regression test in internal/server) and then drives it
// for a fixed span of simulated time, reporting wall-clock throughput
// and the malloc count per completed request. On a healthy build the
// steady-state path is allocation-free, so allocs/request is ~0.
func measureEndToEnd(span sim.Duration) endToEnd {
	cfg := server.Config{
		Seed:     9,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   100 * sim.Millisecond,
		Duration: 200 * sim.Millisecond,
	}
	s := server.New(cfg, nil)
	s.Run() // warm every pool and high-water mark
	var before uint64
	for _, k := range s.Kernels {
		before += k.Counters().Completed
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s.Eng.Run(s.Eng.Now() + sim.Time(span))
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	var after uint64
	for _, k := range s.Kernels {
		after += k.Counters().Completed
	}
	reqs := after - before
	e := endToEnd{
		SimSeconds: span.Seconds(),
		WallMs:     float64(wall.Microseconds()) / 1000,
		Requests:   reqs,
	}
	if wall > 0 {
		e.SimPerWallSecond = e.SimSeconds / wall.Seconds()
	}
	if reqs > 0 {
		e.AllocsPerRequest = float64(m1.Mallocs-m0.Mallocs) / float64(reqs)
	}
	return e
}

// endToEndBestOf takes n independent end-to-end samples and keeps the
// fastest, with the throughput spread across samples recorded. Physics
// are seeded and identical across samples; only wall clock varies.
func endToEndBestOf(n int, span sim.Duration) endToEnd {
	best := measureEndToEnd(span)
	worst := best.SimPerWallSecond
	for i := 1; i < n; i++ {
		e := measureEndToEnd(span)
		if e.SimPerWallSecond > best.SimPerWallSecond {
			best = e
		}
		if e.SimPerWallSecond < worst {
			worst = e.SimPerWallSecond
		}
	}
	best.Samples = n
	if worst > 0 {
		best.SpreadPct = (best.SimPerWallSecond/worst - 1) * 100
	}
	return best
}

func timeFig12(workers int) time.Duration {
	start := time.Now()
	cells, err := (&experiments.Harness{Parallel: workers}).Fig12And13(experiments.Quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
		os.Exit(1)
	}
	if len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "nmapbench: empty Fig12 matrix")
		os.Exit(1)
	}
	return time.Since(start)
}

// benchFlags holds the numeric knobs validated before any sampling.
type benchFlags struct {
	parallel, bestOf     int
	benchTime, microTime float64
}

// validateFlags rejects nonsensical flag values with errors naming the
// flag. Table-tested in main_test.go.
func validateFlags(f benchFlags) error {
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", f.parallel)
	}
	if f.bestOf <= 0 {
		return fmt.Errorf("-best-of must be positive, got %d", f.bestOf)
	}
	if f.benchTime <= 0 {
		return fmt.Errorf("-bench-time must be a positive simulated-second count, got %g", f.benchTime)
	}
	if f.microTime <= 0 {
		return fmt.Errorf("-micro-time must be a positive second count, got %g", f.microTime)
	}
	return nil
}

func main() {
	testing.Init() // register test.* flags so test.benchtime is settable
	out := flag.String("o", "BENCH_sim.json", "output file")
	parallel := flag.Int("parallel", 0,
		"worker count for the parallel Fig12 timing (0 = one per CPU)")
	bestOfN := flag.Int("best-of", 5,
		"samples per metric: the median is recorded, the spread across samples is reported")
	benchTime := flag.Float64("bench-time", 2,
		"simulated seconds per end-to-end throughput sample")
	microTime := flag.Float64("micro-time", 2,
		"seconds per engine-microbenchmark sample; longer samples tame scheduler noise on the ~5ns ops")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memprofile := flag.String("memprofile", "", "write a heap (allocs) profile to FILE")
	flag.Parse()
	if err := validateFlags(benchFlags{
		parallel: *parallel, bestOf: *bestOfN,
		benchTime: *benchTime, microTime: *microTime,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
		os.Exit(2)
	}
	flag.Set("test.benchtime", fmt.Sprintf("%gs", *microTime))
	span := sim.Duration(*benchTime * float64(sim.Second))
	if span < sim.Millisecond {
		span = sim.Millisecond
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprofile)

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Warm the NMAP threshold cache so both timings measure the matrix
	// itself, not the one-off offline profiling.
	for _, prof := range workload.Profiles() {
		experiments.ProfiledThresholds(prof, 1002)
	}

	b := baseline{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PGO:        pgoSetting(),
		Engine:     engineBenches(*bestOfN),
		EndToEnd:   endToEndBestOf(*bestOfN, span),
	}

	serial := timeFig12(1)
	b.Fig12Quick = fig12Times{
		SerialMs: float64(serial.Microseconds()) / 1000,
		Workers:  workers,
	}
	if workers > 1 {
		par := timeFig12(workers)
		b.Fig12Quick.ParallelMs = float64(par.Microseconds()) / 1000
		b.Fig12Quick.Speedup = float64(serial) / float64(par)
		if b.Fig12Quick.Speedup < 1 {
			// Not a regression to chase: with as many workers as vCPUs
			// (e.g. 2 on a 2-vCPU host) the "parallel" run timeshares the
			// same cores the serial run had to itself, so the timing
			// measures scheduler contention, not harness scaling.
			b.Fig12Quick.Note = fmt.Sprintf(
				"speedup <1 is a host artifact: %d workers on a %d-vCPU host timeshare the serial run's cores, measuring contention, not a regression",
				workers, runtime.GOMAXPROCS(0))
		}
	} else {
		// With a single worker the "parallel" run is the serial run plus
		// harness overhead; recording a speedup would just compare two
		// noisy serial timings, so skip it.
		b.Fig12Quick.Note = "single worker: parallel timing and speedup skipped"
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("engine: schedule+fire %.1f ns/op ±%.1f%% (%d allocs/op), cancel %.1f ns/op ±%.1f%% (%d allocs/op), hist P99 %.1f ns/op ±%.1f%%\n",
		b.Engine["EngineScheduleFire"].NsPerOp, b.Engine["EngineScheduleFire"].SpreadPct, b.Engine["EngineScheduleFire"].AllocsPerOp,
		b.Engine["EngineCancel"].NsPerOp, b.Engine["EngineCancel"].SpreadPct, b.Engine["EngineCancel"].AllocsPerOp,
		b.Engine["HistPercentile"].NsPerOp, b.Engine["HistPercentile"].SpreadPct)
	fmt.Printf("end-to-end: %.1f sim-s/wall-s ±%.1f%% (best of %d × %.3g sim-s), %.4f allocs/request over %d requests\n",
		b.EndToEnd.SimPerWallSecond, b.EndToEnd.SpreadPct, b.EndToEnd.Samples, b.EndToEnd.SimSeconds,
		b.EndToEnd.AllocsPerRequest, b.EndToEnd.Requests)
	if pgo := b.PGO; pgo != "" {
		fmt.Printf("pgo: built with %s\n", pgo)
	}
	if workers > 1 {
		fmt.Printf("fig12 quick: serial %.0fms, parallel(%d) %.0fms, speedup %.2fx\n",
			b.Fig12Quick.SerialMs, b.Fig12Quick.Workers, b.Fig12Quick.ParallelMs, b.Fig12Quick.Speedup)
		if b.Fig12Quick.Note != "" {
			fmt.Printf("  note: %s\n", b.Fig12Quick.Note)
		}
	} else {
		fmt.Printf("fig12 quick: serial %.0fms (%s)\n", b.Fig12Quick.SerialMs, b.Fig12Quick.Note)
	}
}

// writeMemProfile snapshots the allocs profile at exit. Runs via defer
// so it captures the full run.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "nmapbench: %v\n", err)
	}
}
