package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite the golden files under testdata/golden (TestGolden, TestFlagListing), logging what changed (see it with -v)")

// commands maps a command name to its body, so a test runs a command
// line as typed.
var commands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"nmapsim":     Sim,
	"nmapsweep":   Sweep,
	"nmapreport":  Report,
	"nmapfuzz":    Fuzz,
	"nmapprofile": Profile,
}

// run executes one command line and returns its exit code and output.
func run(t *testing.T, argv []string) (code int, stdout, stderr string) {
	t.Helper()
	cmd, ok := commands[argv[0]]
	if !ok {
		t.Fatalf("no command %q", argv[0])
	}
	var out, errb bytes.Buffer
	code = cmd(argv[1:], &out, &errb)
	return code, out.String(), errb.String()
}

// goldenCases is the corpus: each file under testdata/golden holds the
// stdout of the command line next to it.
var goldenCases = []struct {
	file, argv string
	// auditReport, when set, names the file holding the -audit-report
	// table (every rule's check tally): the -parallel 4 leg of an
	// audited command line adds -audit-report and its stderr must match
	// that file byte for byte. An unaudited one gains a third leg that
	// does, and its stdout must still match file, since the auditor is a
	// pure observer.
	auditReport string
	// once runs the command line as it stands, without the -parallel
	// legs, for a command that has no worker pool.
	once bool
}{
	{file: "table1.txt", argv: "nmapsim -quick table1"},
	// The ondemand trace: per-millisecond packet split, ksoftirqd
	// wakes, CC6 entries and P-state of core 0.
	{file: "fig2.txt", argv: "nmapsim -quick fig2"},
	// NMAP vs Parties under a switching load: Parties reads completions
	// through OnDone beside the sampler, and both P-state series print.
	{file: "fig16.txt", argv: "nmapsim -quick fig16"},
	// The ondemand trace with four fault classes armed at once: wire
	// loss, lost and late interrupts, and thermal throttling, under a
	// 20ms client RTO.
	{
		file: "fig2-faults.txt",
		argv: "nmapsim -quick -faults loss=0.02,irqloss=0.001,irqjitter=2us,throttle=50/2ms@10 -rto 20ms fig2",
	},
	{
		file:        "fig9-faults.txt",
		argv:        "nmapsim -quick -faults loss=0.02,irqloss=0.001,irqjitter=2us,throttle=50/2ms@10 -rto 20ms fig9",
		auditReport: "fig9-faults-audit-report.txt",
	},
	// A scheduled core crash and queue stall under the auditor: the
	// failure-domain tally counts the crash path's checks.
	{
		file:        "fig9-crash-audit.txt",
		argv:        "nmapsim -quick -faults corecrash=1@150ms:100ms,queuestall=2@180ms:40ms -rto 20ms -audit fig9",
		auditReport: "fig9-crash-audit-report.txt",
	},
	// The shed arm drives the request-accounting tally.
	{
		file:        "fig-resilience-audit.txt",
		argv:        "nmapsim -quick -audit fig-resilience",
		auditReport: "fig-resilience-audit-report.txt",
	},
	{file: "fig-cluster-audit-nodes3.txt", argv: "nmapsim -quick -audit -nodes 3 fig-cluster"},
	// Hedge timers and client RTO timers on a fleet: nearly every RTO
	// timer is cancelled microseconds after it is armed, and the crashed
	// node's requests retransmit, so the calendar's geometry runs far
	// from the plain fig-cluster case's.
	{file: "fig-cluster-audit-hedge-rto-nodes3.txt", argv: "nmapsim -quick -audit -nodes 3 -hedge -rto 20ms fig-cluster"},
	{file: "fig-grayfail-audit-nodes3.txt", argv: "nmapsim -quick -audit -nodes 3 fig-grayfail"},
	{file: "nmapreport-seeds1-dur100.json", argv: "nmapreport -seeds 1 -dur 100"},
	// 51-point latency CDFs per cell, read from the exact recorder.
	{file: "nmapreport-memcached-cdf-seeds1-dur100.json", argv: "nmapreport -app memcached -seeds 1 -dur 100 -cdf"},
	// The same CDFs from the bounded streaming recorder.
	{file: "nmapreport-memcached-cdf-stream-seeds1-dur100.json", argv: "nmapreport -app memcached -seeds 1 -dur 100 -cdf -stream"},
	// P50–P99.9 response-time lines from the exact recorder.
	{file: "fig11.txt", argv: "nmapsim -quick fig11"},
	// The policies no figure case prints a number for: conservative,
	// intel_powersave, schedutil, per-request DVFS and NCAP.
	{
		file: "nmapreport-memcached-policies-seeds1-dur100.json",
		argv: "nmapreport -app memcached -seeds 1 -dur 100 -policies conservative,intel_powersave,schedutil,perrequest,ncap",
	},
	// nginx's 48-segment responses are in flight on the NIC while a core
	// crash offlines its queue, a queue stall wedges another, and lost
	// interrupts leave queues unmasked.
	{
		file: "nmapreport-nginx-faults-audit-seeds1-dur100.json",
		argv: "nmapreport -app nginx -seeds 1 -dur 100 -audit -faults corecrash=1@250ms:40ms,queuestall=2@260ms:20ms,irqloss=0.001",
	},
	// The latency-load sweep table over three load points.
	{file: "nmapsweep-points3-dur100.txt", argv: "nmapsweep -points 3 -dur 100"},
	// 60 fuzzed single-server and fleet configurations checked under the
	// auditor; every spec line is printed in input order.
	{file: "nmapfuzz-v-n60-seed1.txt", argv: "nmapfuzz -v -n 60 -seed 1"},
	// nginx's §4.2 thresholds from the committed table.
	{file: "nmapprofile-app-nginx.txt", argv: "nmapprofile -app nginx", once: true},
}

// TestGolden is the byte gate of the CLIs: every command line in the
// corpus must print exactly the bytes the file holds, serially and on a
// 4-worker pool (a command with no pool, once). Any drift in flag
// handling, physics, fan-out determinism, fault choreography or
// rendering fails it. Run with -update to rewrite the files after an
// intended output change.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		argv := strings.Fields(c.argv)
		audit := strings.Contains(c.argv, " -audit ")
		type leg struct {
			parallel    int // 0: no -parallel flag
			auditReport bool
		}
		legs := []leg{{1, false}, {4, false}}
		if c.once {
			legs = []leg{{0, false}}
		}
		switch {
		case c.auditReport != "" && audit:
			legs[1].auditReport = true
		case c.auditReport != "":
			legs = append(legs, leg{4, true})
		}
		for _, l := range legs {
			name := fmt.Sprintf("%s/parallel=%d/audit=%v", c.file, l.parallel, audit || l.auditReport)
			if c.once {
				name = c.file
			}
			t.Run(name, func(t *testing.T) {
				args := argv[:1:1]
				if l.parallel > 0 {
					args = append(args, "-parallel", fmt.Sprint(l.parallel))
				}
				if l.auditReport {
					args = append(args, "-audit-report")
				}
				code, stdout, stderr := run(t, append(args, argv[1:]...))
				if code != 0 {
					t.Fatalf("%s exited %d:\n%s", strings.Join(args, " "), code, stderr)
				}
				checkGolden(t, c.file, stdout)
				if l.auditReport {
					checkGolden(t, c.auditReport, stderr)
				}
			})
		}
	}
}

// TestFlagListing pins each command's flag listing (its -h output): no
// flag may be added, dropped, renamed, re-defaulted or reworded without
// an -update.
func TestFlagListing(t *testing.T) {
	for name := range commands {
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := run(t, []string{name, "-h"})
			if code != 0 || stdout != "" {
				t.Fatalf("-h exited %d with stdout %q", code, stdout)
			}
			checkGolden(t, "flags-"+name+".txt", stderr)
		})
	}
}

// checkGolden compares got with testdata/golden/file, or rewrites the
// file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	want, err := os.ReadFile(path)
	if *update {
		t.Logf("%s: %s", file, diffSummary(string(want), got))
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		want, err = []byte(got), nil
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden bytes (rerun with -update only for an intended change):\n--- got ---\n%s\n--- want ---\n%s",
			file, got, want)
	}
}

// diffSummary describes how -update changes a golden file: "unchanged",
// or the size of the differing region (the lines left once the common
// leading and trailing lines are set aside, counted on the longer side)
// and its first line on each side.
func diffSummary(before, after string) string {
	if before == after {
		return "unchanged"
	}
	a, b := strings.Split(before, "\n"), strings.Split(after, "\n")
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	line := func(ls []string) string {
		if pre < len(ls)-suf {
			return fmt.Sprintf("%q", ls[pre])
		}
		return "(nothing)"
	}
	return fmt.Sprintf("%d line(s) changed; first at line %d: was %s, now %s",
		max(len(a), len(b))-pre-suf, pre+1, line(a), line(b))
}

func TestDiffSummary(t *testing.T) {
	cases := []struct{ before, after, want string }{
		{"a\nb\n", "a\nb\n", "unchanged"},
		{"a\nb\nc\n", "a\nB\nC\n", `2 line(s) changed; first at line 2: was "b", now "B"`},
		{"a\n", "a\nb\n", `1 line(s) changed; first at line 2: was (nothing), now "b"`},
		{"a\nb\n", "b\n", `1 line(s) changed; first at line 1: was "a", now (nothing)`},
		{"", "x", `1 line(s) changed; first at line 1: was "", now "x"`},
	}
	for _, c := range cases {
		if got := diffSummary(c.before, c.after); got != c.want {
			t.Errorf("diffSummary(%q, %q) = %s, want %s", c.before, c.after, got, c.want)
		}
	}
}
