// Package cli holds the bodies of the nmapsim, nmapsweep, nmapreport,
// nmapfuzz and nmapprofile commands. Each command is a function of its argument list and output
// streams that returns the process exit code, so a test runs exactly the
// command line a user types and reads the bytes it prints; cmd/*/main.go
// only hands it os.Args, os.Stdout and os.Stderr.
//
// The run-condition flags the commands share (-parallel, -faults,
// -rto/-retries, -audit, -audit-report, -stream, -checkpoint, -cell-*,
// -quarantine, -mem-budget-mb) are registered, validated and turned into
// an experiments.Harness in one place, harnessFlags.
//
// Exit codes: 0 success, 1 a run or I/O failure (for nmapfuzz, an
// invariant violation), 2 a usage error (bad flag value, unknown
// experiment or app, unreadable reproducer), 3 an nmapsweep whose
// -quarantine left holes in the table.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/governor"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// command is one invocation of a CLI: its name, which prefixes every
// message, and its output streams.
type command struct {
	name           string
	stdout, stderr io.Writer
}

// flagSet returns an empty flag set that reports to stderr.
func (c command) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// parse parses args into fs. When it returns done, the command ends with
// code: 0 after -h printed the flag listing, 2 after a malformed flag
// (the flag package has already reported it with the listing).
func parse(fs *flag.FlagSet, args []string) (code int, done bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, false
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	default:
		return 2, true
	}
}

// exit reports err on stderr under the command's name and returns code.
func (c command) exit(code int, err error) int {
	fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
	return code
}

// warnf reports a line on stderr under the command's name.
func (c command) warnf(format string, args ...any) {
	fmt.Fprintf(c.stderr, c.name+": "+format+"\n", args...)
}

// harnessFlags is the run-condition flag surface the commands share.
// A command registers the subset it offers; harness validates them and
// builds the experiments.Harness they describe. A flag the command does
// not offer keeps its zero value, which is the Harness default.
type harnessFlags struct {
	parallel     int
	faults       string
	rto          time.Duration
	retries      int
	cellTimeout  time.Duration
	audit        bool
	auditReport  bool
	stream       bool
	checkpoint   string
	cellRetries  int
	cellBackoff  time.Duration
	cellDeadline time.Duration
	quarantine   bool
	memBudgetMB  int
}

// sharedUsage is the usage text of the harness flags that every command
// offering them words alike.
var sharedUsage = map[string]string{
	"parallel":           "simulation cells in flight at once (0 = one per CPU, 1 = serial)",
	"rto":                "client retransmission timeout (0 disables the retry loop), e.g. 10ms",
	"retries":            "max retransmissions per request (0 = default 3; needs -rto)",
	"cell-timeout":       "wall-clock budget per simulation cell (0 = unlimited)",
	"stream":             "record latencies into the bounded streaming histogram (fixed 64KB/cell, ~0.1% quantile error) instead of the exact sample recorder",
	"cell-retry-backoff": "delay before a failed cell's first retry; doubles per retry, capped at 10x",
	"cell-deadline":      "wall-clock budget across all attempts of one cell, backoff included (0 = none)",
	"quarantine":         "quarantine cells that exhaust their retries — report them explicitly and keep sweeping — instead of failing the whole sweep",
	"mem-budget-mb":      "soft memory watermark in MB: cells whose projected exact-histogram footprint (x workers) would cross it record into the bounded streaming histogram instead, explicitly marked (0 = unlimited)",
}

// registerHarnessFlags registers on fs each harness flag named in usage,
// with the usage text given there or, for "", its shared text.
func registerHarnessFlags(fs *flag.FlagSet, usage map[string]string) *harnessFlags {
	hf := &harnessFlags{}
	for name, text := range usage {
		if text == "" {
			text = sharedUsage[name]
		}
		switch name {
		case "parallel":
			fs.IntVar(&hf.parallel, name, 0, text)
		case "faults":
			fs.StringVar(&hf.faults, name, "", text)
		case "rto":
			fs.DurationVar(&hf.rto, name, 0, text)
		case "retries":
			fs.IntVar(&hf.retries, name, 0, text)
		case "cell-timeout":
			fs.DurationVar(&hf.cellTimeout, name, 0, text)
		case "audit":
			fs.BoolVar(&hf.audit, name, false, text)
		case "audit-report":
			fs.BoolVar(&hf.auditReport, name, false, text)
		case "stream":
			fs.BoolVar(&hf.stream, name, false, text)
		case "checkpoint":
			fs.StringVar(&hf.checkpoint, name, "", text)
		case "cell-retries":
			fs.IntVar(&hf.cellRetries, name, 0, text)
		case "cell-retry-backoff":
			fs.DurationVar(&hf.cellBackoff, name, time.Second, text)
		case "cell-deadline":
			fs.DurationVar(&hf.cellDeadline, name, 0, text)
		case "quarantine":
			fs.BoolVar(&hf.quarantine, name, false, text)
		case "mem-budget-mb":
			fs.IntVar(&hf.memBudgetMB, name, 0, text)
		default:
			panic("cli: no harness flag -" + name)
		}
	}
	return hf
}

// harness rejects nonsensical flag values with an error naming the
// flag, parses the fault-injection and client-retry settings, and
// returns the Harness the flags describe. Every error is a usage error.
func (hf *harnessFlags) harness() (*experiments.Harness, error) {
	switch {
	case hf.parallel < 0:
		return nil, fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", hf.parallel)
	case hf.cellTimeout < 0:
		return nil, fmt.Errorf("-cell-timeout must be >= 0 (0 = unlimited), got %v", hf.cellTimeout)
	case hf.rto < 0:
		return nil, fmt.Errorf("-rto must be >= 0 (0 disables the retry loop), got %v", hf.rto)
	case hf.retries != 0 && hf.rto == 0:
		return nil, fmt.Errorf("-retries needs -rto to enable the retry loop")
	case hf.cellRetries < 0:
		return nil, fmt.Errorf("-cell-retries must be >= 0, got %d", hf.cellRetries)
	case hf.cellBackoff < 0:
		return nil, fmt.Errorf("-cell-retry-backoff must be >= 0, got %v", hf.cellBackoff)
	case hf.cellDeadline < 0:
		return nil, fmt.Errorf("-cell-deadline must be >= 0, got %v", hf.cellDeadline)
	case hf.memBudgetMB < 0:
		return nil, fmt.Errorf("-mem-budget-mb must be >= 0 (0 = unlimited), got %d", hf.memBudgetMB)
	}
	fcfg, err := faults.ParseSpec(hf.faults)
	if err != nil {
		return nil, err
	}
	var rcfg workload.RetryConfig
	if hf.rto > 0 {
		rcfg = workload.RetryConfig{Timeout: sim.Duration(hf.rto.Nanoseconds()), MaxRetries: hf.retries}
		if err := rcfg.Validate(); err != nil {
			return nil, err
		}
	}
	return &experiments.Harness{
		Parallel:  hf.parallel,
		Faults:    fcfg,
		Retry:     rcfg,
		Audit:     hf.audit || hf.auditReport,
		Streaming: hf.stream,
		CellRetry: experiments.HarnessRetry{
			MaxRetries: hf.cellRetries,
			Backoff:    hf.cellBackoff,
			Deadline:   hf.cellDeadline,
			Quarantine: hf.quarantine,
		},
		MemoryBudget: int64(hf.memBudgetMB) << 20,
		RunTimeout:   hf.cellTimeout,
	}, nil
}

// openJournal opens the -checkpoint journal, when one is named, into
// h.Journal; the caller closes it. Damage the load skipped and the
// cells it resumes from are reported on stderr.
func (hf *harnessFlags) openJournal(c command, h *experiments.Harness) error {
	if hf.checkpoint == "" {
		return nil
	}
	j, err := experiments.OpenJournal(hf.checkpoint)
	if err != nil {
		return err
	}
	if rep := j.LoadReport(); !rep.Clean() {
		// A torn tail is already one of the Torn lines.
		c.warnf("journal damage skipped on load (run nmapsweep -fsck for detail): torn=%d blank=%d no-payload=%d bad-crc=%d dup-seq=%d",
			rep.Torn, rep.Blank, rep.NoPayload, rep.BadCRC, rep.DupSeq)
	}
	if n := j.Len(); n > 0 {
		c.warnf("resuming, %d cell(s) already journaled in %s", n, hf.checkpoint)
	}
	h.Journal = j
	return nil
}

// reportAudit prints the per-rule audit tally of h's runs on stderr,
// when -audit-report asked for it.
func (hf *harnessFlags) reportAudit(c command, h *experiments.Harness) {
	if !hf.auditReport {
		return
	}
	if rep := h.AuditReport(); rep != nil {
		fmt.Fprint(c.stderr, rep)
	}
}

// checkPolicies rejects a power policy or an idle policy the harness
// cannot run, naming the known ones. An empty idle name is the
// experiments default, menu.
func checkPolicies(policies []string, idle string) error {
	for _, pol := range policies {
		if !slices.Contains(experiments.PolicyNames, pol) {
			return fmt.Errorf("unknown policy %q (want %s)", pol, strings.Join(experiments.PolicyNames, ", "))
		}
	}
	if _, ok := governor.NewIdlePolicy(idle); !ok && idle != "" {
		return fmt.Errorf("unknown idle policy %q (want %s)", idle, strings.Join(governor.IdlePolicies, ", "))
	}
	return nil
}

// startProfiles starts a CPU profile into cpuPath and arms a heap
// (allocs) profile into memPath, each when named. The returned stop
// writes both; the command defers it, so a failing run keeps them too.
func (c command) startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if memPath != "" {
			c.writeMemProfile(memPath)
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
	}, nil
}

// writeMemProfile snapshots the allocs profile into path.
func (c command) writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		c.warnf("%v", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		c.warnf("%v", err)
	}
}
