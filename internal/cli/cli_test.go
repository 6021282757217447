package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmapsim/internal/harnesschaos"
)

// TestValidateFlags pins the CLI error paths for bad flag values: each
// command line must exit 2 before any cell runs, with an error naming
// the offending flag. An accepted command line ends on a bad positional
// argument or -app instead, so it too exits 2 without running a cell,
// but only after every flag passed. The cases are grouped by the
// command (and, for nmapsim's -faults/-rto/-retries, the fault-injection
// parse) they check.
func TestValidateFlags(t *testing.T) {
	const (
		simOK    = "unknown experiment" // nmapsim ... bogus
		appOK    = "unknown app"        // nmapsweep/nmapreport/nmapprofile ... -app bogus
		sweepApp = "-app bogus"
		fuzzOK   = "no such file" // nmapfuzz ... -repro of a missing file
		noRepro  = "-repro testdata/missing.json"
	)
	type flagCase struct{ name, argv, want string }
	groups := []struct {
		name  string
		cases []flagCase
	}{
		{"nmapsim", []flagCase{
			{"defaults accepted", "nmapsim bogus", simOK},
			{"serial with budget accepted", "nmapsim -parallel 1 -cell-timeout 1m bogus", simOK},
			{"negative parallel", "nmapsim -parallel -3 bogus", "-parallel"},
			{"negative cell-timeout", "nmapsim -cell-timeout -1ms bogus", "-cell-timeout"},
			{"fleet knobs accepted", "nmapsim -nodes 1 -route flow -rto 20ms bogus", simOK},
			{"negative rto", "nmapsim -rto -5ms bogus", "-rto"},
			{"zero nodes", "nmapsim -nodes 0 bogus", "-nodes"},
			{"unknown route", "nmapsim -route bogus bogus", "-route"},
			{"empty route is the default", "nmapsim -route= bogus", simOK},
			{"hedge on a table", "nmapsim -quick -hedge table2", "-hedge does not apply to table2"},
			{"route on fig8", "nmapsim -quick -route least fig8", "-route does not apply to fig8"},
			{"hedge on fig-grayfail", "nmapsim -quick -hedge fig-grayfail", "-hedge does not apply to fig-grayfail"},
			{"second experiment", "nmapsim table2 table1", `unexpected argument "table1" after table2: flags go before`},
			{"flag after the experiment", "nmapsim fig-grayfail -hedge", `unexpected argument "-hedge" after fig-grayfail`},
			{"unknown experiment before extra arguments", "nmapsim bogus table1", simOK},
		}},
		// nmapsim's fault injection and retry loop: -faults, -rto, -retries.
		{"nmapsim-injection", []flagCase{
			{"defaults accepted", "nmapsim bogus", simOK},
			{"faults with retry loop", "nmapsim -faults corecrash=1@250ms,queuestall=2@300ms:40ms -rto 20ms -retries 2 bogus", simOK},
			{"malformed spec", "nmapsim -faults corecrash=1 bogus", "CORE@TIME"},
			{"unknown key", "nmapsim -faults bogus=1 bogus", "unknown key"},
			{"retries without rto", "nmapsim -retries 3 bogus", "-retries needs -rto"},
			{"negative retries", "nmapsim -rto 20ms -retries -1 bogus", "negative retry budget"},
		}},
		{"nmapsweep", []flagCase{
			{"defaults accepted", "nmapsweep " + sweepApp, appOK},
			{"self-heal knobs accepted", "nmapsweep -quarantine -mem-budget-mb 64 " + sweepApp, appOK},
			{"zero points", "nmapsweep -points 0", "-points"},
			{"negative points", "nmapsweep -points -4", "-points"},
			{"zero duration", "nmapsweep -dur 0", "-dur"},
			{"negative parallel", "nmapsweep -parallel -1", "-parallel"},
			{"negative mem budget", "nmapsweep -mem-budget-mb -1", "-mem-budget-mb"},
			{"fsck without checkpoint", "nmapsweep -fsck", "-checkpoint"},
			{"fsck with inflection", "nmapsweep -fsck -checkpoint J -inflection", "-inflection does not apply to -fsck"},
			{"fsck with policy", "nmapsweep -fsck -checkpoint J -policy bogus", "-policy does not apply to -fsck"},
			{"fsck with parallel", "nmapsweep -fsck -checkpoint J -parallel 2", "-parallel does not apply to -fsck"},
			{"policies accepted", "nmapsweep -policy nmap -idle c6only " + sweepApp, appOK},
			{"unknown policy", "nmapsweep -policy bogus", `unknown policy "bogus"`},
			{"unknown policy under quarantine", "nmapsweep -points 2 -dur 50 -policy bogus -quarantine", `unknown policy "bogus"`},
			{"unknown idle", "nmapsweep -idle bogus", `unknown idle policy "bogus"`},
			{"inflection accepted", "nmapsweep -inflection -points 2 " + sweepApp, appOK},
			{"inflection with one point", "nmapsweep -inflection -points 1", "-points"},
			{"inflection ignores policy", "nmapsweep -inflection -policy nmap", "-policy"},
			{"inflection ignores idle", "nmapsweep -inflection -idle menu", "-idle"},
			{"inflection ignores dur", "nmapsweep -inflection -dur 100", "-dur"},
		}},
		{"nmapreport", []flagCase{
			{"defaults accepted", "nmapreport " + sweepApp, appOK},
			{"harness knobs accepted", "nmapreport -parallel 1 -stream -audit -audit-report " + sweepApp, appOK},
			{"zero seeds", "nmapreport -seeds 0", "-seeds"},
			{"negative seeds", "nmapreport -seeds -2", "-seeds"},
			{"zero duration", "nmapreport -dur 0", "-dur"},
			{"negative parallel", "nmapreport -parallel -3", "-parallel"},
			{"malformed faults", "nmapreport -faults corecrash=1", "CORE@TIME"},
			{"unknown policy", "nmapreport -seeds 1 -dur 300 -policies nmap,bogus", `unknown policy "bogus"`},
			{"unknown idle", "nmapreport -idle bogus", `unknown idle policy "bogus"`},
		}},
		{"nmapfuzz", []flagCase{
			{"defaults accepted", "nmapfuzz " + noRepro, fuzzOK},
			{"zero runs accepted", "nmapfuzz -n 0 " + noRepro, fuzzOK},
			{"negative n", "nmapfuzz -n -1", "-n"},
			{"negative parallel", "nmapfuzz -parallel -3", "-parallel"},
			{"serial with one shrink accepted", "nmapfuzz -parallel 1 -shrink 1 " + noRepro, fuzzOK},
			{"zero shrink", "nmapfuzz -shrink 0", "-shrink"},
			{"negative shrink", "nmapfuzz -shrink -5", "-shrink"},
		}},
		{"nmapprofile", []flagCase{
			{"unknown app", "nmapprofile -app bogus", appOK},
			{"negative seed", "nmapprofile -seed -1", "-seed"},
		}},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for _, tc := range g.cases {
				argv := strings.Fields(tc.argv)
				t.Run(tc.name, func(t *testing.T) {
					code, stdout, stderr := run(t, argv)
					if code != 2 {
						t.Fatalf("%s exited %d, want 2 (stderr %q)", tc.argv, code, stderr)
					}
					if stdout != "" {
						t.Errorf("%s printed %q on stdout", tc.argv, stdout)
					}
					if !strings.Contains(stderr, tc.want) {
						t.Fatalf("%s: stderr %q does not name %s", tc.argv, stderr, tc.want)
					}
				})
			}
		})
	}
}

// TestAllAcceptsFleetFlags: `all` runs fig-cluster, which reads every
// fleet flag, so none is a usage error. A 1ns cell budget fails its
// first simulated cell (fig2's, after the two tables) with exit 1.
func TestAllAcceptsFleetFlags(t *testing.T) {
	code, _, stderr := run(t, strings.Fields("nmapsim -quick -cell-timeout 1ns -nodes 3 -route least -hedge all"))
	if code != 1 || !strings.Contains(stderr, "wall-clock budget") {
		t.Fatalf("exit %d, stderr %q; want 1 naming the budget", code, stderr)
	}
}

// TestFailedRunKeepsProfiles: a run that fails (here every cell blows
// its 1ms wall-clock budget) exits 1 and still writes both profiles.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.prof"), filepath.Join(dir, "m.prof")
	code, _, stderr := run(t, []string{"nmapsim", "-quick", "-cell-timeout", "1ms",
		"-cpuprofile", cpu, "-memprofile", mem, "fig9"})
	if code != 1 || !strings.Contains(stderr, "wall-clock budget") {
		t.Fatalf("exit %d, stderr %q; want 1 naming the budget", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s not written (stat: %v)", filepath.Base(p), err)
		}
	}
}

// TestReportWarnsOnDamagedJournal: nmapreport resuming from a journal
// with a torn tail names the damage on stderr, re-runs the lost cell and
// prints the same records as the uninterrupted run.
func TestReportWarnsOnDamagedJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.chk")
	argv := []string{"nmapreport", "-app", "memcached", "-policies", "performance",
		"-seeds", "1", "-dur", "20", "-parallel", "1", "-checkpoint", journal}
	code, want, stderr := run(t, argv)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	if err := harnesschaos.TruncateTail(journal, 10); err != nil {
		t.Fatal(err)
	}
	code, got, stderr := run(t, argv)
	if code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, stderr)
	}
	for _, w := range []string{"journal damage skipped on load", "torn=1", "resuming, 2 cell(s)"} {
		if !strings.Contains(stderr, w) {
			t.Errorf("stderr does not say %q:\n%s", w, stderr)
		}
	}
	if got != want {
		t.Fatalf("resumed records differ from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestQuarantineExitCode pins the exit-code contract: a sweep that
// finishes with quarantined cells must exit 3 — distinct from clean (0),
// hard failure (1), and usage error (2) — so CI and scripts never treat
// a holey curve as a clean run. The QUARANTINED rows themselves are
// still rendered before exiting (see Sweep).
func TestQuarantineExitCode(t *testing.T) {
	if got := quarantineExitCode(0); got != 0 {
		t.Fatalf("clean sweep exit code = %d, want 0", got)
	}
	for _, n := range []int{1, 2, 7} {
		if got := quarantineExitCode(n); got != 3 {
			t.Fatalf("%d quarantined cell(s) exit code = %d, want 3", n, got)
		}
	}
}

// TestSweepQuarantineExit runs the contract end to end: a sweep whose
// every cell fails under -quarantine (a crash of a core the server does
// not have fails each build) still renders its table, with one
// QUARANTINED row per cell, names the count on stderr and exits 3.
func TestSweepQuarantineExit(t *testing.T) {
	code, stdout, stderr := run(t, strings.Fields("nmapsweep -points 2 -dur 50 -faults corecrash=99@100ms -quarantine"))
	if code != 3 {
		t.Fatalf("exit %d, want 3 (stderr %q)", code, stderr)
	}
	if n := strings.Count(stdout, "QUARANTINED"); n != 2 {
		t.Fatalf("%d QUARANTINED row(s), want one per cell:\n%s", n, stdout)
	}
	if !strings.Contains(stderr, "2 cell(s) quarantined") {
		t.Fatalf("stderr does not name the quarantined cells: %q", stderr)
	}
}

// TestTruncateErr keeps quarantine table cells one line and bounded.
func TestTruncateErr(t *testing.T) {
	short := errString("boom")
	if got := truncateErr(short); got != "boom" {
		t.Fatalf("short error mangled: %q", got)
	}
	long := errString(strings.Repeat("x", 200))
	if got := truncateErr(long); len(got) != 60 || !strings.HasSuffix(got, "...") {
		t.Fatalf("long error not truncated to 60 with ellipsis: %q (len %d)", got, len(got))
	}
}

type errString string

func (e errString) Error() string { return string(e) }
