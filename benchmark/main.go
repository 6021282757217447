// Command benchmark is the repository's benchmark. It runs the workload
// catalogue, each repetition in a fresh child process, gates every
// repetition on the simulator's physics and conservation laws, and
// prints the end-to-end and per-layer metrics by name with their units.
// A traced pass attributes host CPU time to the simulator's layers. With
// -ab it compares a base build with this one on the same host. README.md
// describes the workloads, the metrics and how to read them.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash benchmark/run.sh [-workload NAME|all] [-seed N] [-reps N]
//	                      [-trace 0|1] [-trace-reps N] [-seconds S]
//	bash benchmark/run.sh -ab BASE_BINARY [-pairs N] [-workload NAME|all] [-seed N]
//
// The last line of standard output is one JSON object: correct,
// attempted and failed count repetitions, and metrics holds the
// end-to-end metrics (-trace 0) or the per-layer ones (-trace 1), keyed
// "workload/metric" when more than one workload ran. The exit code is 0
// only when every repetition passed the correctness gate.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	reps      int
	traceReps int
	ab        string
	pairs     int
	// child runs one repetition of workload in this process.
	child bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.reps, "reps", 5, "untraced repetitions per workload")
	fs.IntVar(&o.trace, "trace", 1, "1: add the traced pass and report the per-layer metrics in the JSON line; 0: report the end-to-end ones")
	fs.IntVar(&o.traceReps, "trace-reps", 2, "traced repetitions per workload (with -trace 1)")
	fs.Float64Var(&o.seconds, "seconds", 0, "wall-time budget replacing -reps and -trace-reps: rounds of repetitions run while it lasts (0 = none)")
	fs.StringVar(&o.ab, "ab", "", "compare this build with BASE_BINARY, a benchmark binary built from the base commit")
	fs.IntVar(&o.pairs, "pairs", 10, "alternating base/current pairs per workload for -ab")
	fs.BoolVar(&o.child, "child", false, "run one repetition in this process and print it as JSON (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return o, validateFlags(o)
}

// validateFlags rejects values the benchmark cannot run with, naming
// the flag.
func validateFlags(o options) error {
	if _, ok := lookup(o.workload); !ok && o.workload != "all" {
		names := make([]string, len(catalogue))
		for i, w := range catalogue {
			names[i] = w.name
		}
		return fmt.Errorf("-workload: unknown workload %q (want all, %s)", o.workload, strings.Join(names, ", "))
	}
	if o.child && o.workload == "all" {
		return errors.New("-workload: -child runs one named workload, not all")
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", o.reps)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.traceReps < 1 {
		return fmt.Errorf("-trace-reps must be at least 1, got %d", o.traceReps)
	}
	if o.seconds < 0 || math.IsNaN(o.seconds) || math.IsInf(o.seconds, 0) {
		return fmt.Errorf("-seconds must be a finite number >= 0, got %g", o.seconds)
	}
	if o.pairs < 1 {
		return fmt.Errorf("-pairs must be at least 1, got %d", o.pairs)
	}
	if o.ab != "" {
		if _, err := os.Stat(o.ab); err != nil {
			return fmt.Errorf("-ab: %w", err)
		}
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	var code int
	switch {
	case o.child:
		code = childMain(o)
	case o.ab != "":
		code = abMain(o)
	default:
		code = benchMain(o)
	}
	os.Exit(code)
}

// selected returns the workloads o names.
func selected(o options) []workloadDef {
	if w, ok := lookup(o.workload); ok {
		return []workloadDef{w}
	}
	return catalogue
}

// childMain runs one repetition and prints it as one JSON line. A traced
// repetition profiles the whole process, set-up included.
func childMain(o options) int {
	var prof bytes.Buffer
	if o.trace == 1 {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	w, _ := lookup(o.workload)
	r, err := w.run(o.seed, w.span)
	if o.trace == 1 {
		pprof.StopCPUProfile()
		p, perr := decodeProfile(prof.Bytes())
		if perr == nil {
			r.Layers = attribute(p)
		}
		err = errors.Join(err, perr)
	}
	if err != nil {
		r.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if r.Err != "" {
		return 1
	}
	return 0
}

// runChild runs one repetition of w in a child process and waits for it.
func runChild(w workloadDef, seed uint64, traced bool) sample {
	s := sample{traced: traced}
	exe, err := os.Executable()
	if err != nil {
		s.Err = err.Error()
		return s
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// Killed with the parent, so no repetition outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	runErr := cmd.Run()
	s.wallS = time.Since(start).Seconds()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &s.rep); err != nil {
		s.Err = errors.Join(runErr, fmt.Errorf("child output: %w", err)).Error()
		return s
	}
	if runErr != nil && s.Err == "" {
		s.Err = runErr.Error()
	}
	s.setupS = float64(s.FirstEventUnixNs-start.UnixNano()) / 1e9
	return s
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// collect runs the repetitions round-robin over the workloads: -reps
// untraced and, with -trace 1, -trace-reps traced ones, interleaved.
// With -seconds, rounds of one untraced (and one traced) repetition per
// workload instead run until the next round would overrun the budget.
func collect(o options, ws []workloadDef) [][]sample {
	out := make([][]sample, len(ws))
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var longest time.Duration
	for round := 0; ; round++ {
		var plain, traced bool
		if o.seconds > 0 {
			if round > 0 && time.Since(start)+longest > budget {
				return out
			}
			plain, traced = true, o.trace == 1
		} else {
			plain, traced = round < o.reps, o.trace == 1 && round < o.traceReps
			if !plain && !traced {
				return out
			}
		}
		t := time.Now()
		for i, w := range ws {
			if plain {
				out[i] = append(out[i], runChild(w, o.seed, false))
			}
			if traced {
				out[i] = append(out[i], runChild(w, o.seed, true))
			}
		}
		longest = max(longest, time.Since(t))
	}
}

// gate is the correctness check across one workload's repetitions: each
// passed its own gate in the child, and all share one physics digest.
// It returns the passing repetitions and reports the others on stderr.
func gate(name string, ss []sample) (passed []sample) {
	ref := ""
	for _, s := range ss {
		if s.Err == "" {
			ref = s.Digest
			break
		}
	}
	for i, s := range ss {
		switch {
		case s.Err != "":
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d failed: %s\n", name, i, s.Err)
		case s.Digest != ref:
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d physics digest %s differs from %s\n", name, i, s.Digest, ref)
		default:
			passed = append(passed, s)
		}
	}
	return passed
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchMain runs the benchmark and prints the tables and the JSON line.
func benchMain(o options) int {
	ws := selected(o)
	runs := collect(o, ws)
	res := result{Metrics: map[string]metricValue{}}
	report := perLayer
	if o.trace == 0 {
		report = endToEnd
	}
	for i, w := range ws {
		passed := gate(w.name, runs[i])
		res.Attempted += len(runs[i])
		res.Failed += len(runs[i]) - len(passed)
		if plain, _ := split(passed); len(plain) == 0 {
			continue
		}
		m := summarize(passed)
		printTable(os.Stdout, w, o.seed, passed, len(runs[i])-len(passed), m)
		for _, s := range report {
			key := s.name
			if len(ws) > 1 {
				key = w.name + "/" + s.name
			}
			res.Metrics[key] = metricValue{m[s.name], s.unit}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable prints one workload's metrics from its passing
// repetitions, with the spread of the untraced ones beside each
// per-repetition median.
func printTable(w io.Writer, wd workloadDef, seed uint64, ss []sample, failed int, m map[string]float64) {
	plain, traced := split(ss)
	status := "correctness gate passed"
	if failed > 0 {
		status = fmt.Sprintf("%d more FAILED the correctness gate", failed)
	}
	fmt.Fprintf(w, "== %s (seed %d): %d untraced + %d traced repetitions, %s\n",
		wd.name, seed, len(plain), len(traced), status)
	fmt.Fprintf(w, "   %s\n", wd.why)
	row := func(s metricSpec) {
		spread := ""
		if s.of != nil && len(plain) > 1 {
			q1, q2, q3 := quartiles(values(plain, s.of))
			spread = fmt.Sprintf("IQR %.1f%%", 100*ratio(q3-q1, q2))
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-10s %-6s is better  %s\n", s.name, m[s.name], s.unit, s.better, spread)
	}
	fmt.Fprintln(w, "  end to end (median of untraced repetitions)")
	for _, s := range endToEnd {
		row(s)
	}
	fmt.Fprintln(w, "  per layer")
	for _, s := range perLayer {
		if tracedOnly(s.name) && len(traced) == 0 {
			continue
		}
		row(s)
	}
}
