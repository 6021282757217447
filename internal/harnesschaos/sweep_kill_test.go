package harnesschaos

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmapsim/internal/cli"
	"nmapsim/internal/experiments"
)

// sweepChildEnv marks a re-exec of this test binary as an nmapsweep
// process: TestMain hands its arguments to cli.Sweep instead of running
// the tests, so a test can kill a real sweep process mid-run.
const sweepChildEnv = "HARNESSCHAOS_SWEEP_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(sweepChildEnv) != "" {
		os.Exit(cli.Sweep(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// journalRecords counts the complete records in the journal at path:
// each cell is one newline-terminated j2 line.
func journalRecords(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// TestChaosSweepKilledMidRun drives the whole nmapsweep command through
// the harness faults a crash leaves on disk. A journaled 6-cell sweep
// runs in a child process and is SIGKILLed once its journal holds two
// complete records; the journal then gains a torn trailing record and
// loses its first one to a zeroed byte. -fsck must flag the damage, and
// the resumed sweep must print exactly what an uninterrupted one prints
// while taking every intact record from the journal.
func TestChaosSweepKilledMidRun(t *testing.T) {
	argv := []string{"-points", "6", "-dur", "250", "-parallel", "1"}
	const cells = 6
	var ref, refErr bytes.Buffer
	if code := cli.Sweep(argv, &ref, &refErr); code != 0 {
		t.Fatalf("uninterrupted sweep exited %d: %s", code, refErr.String())
	}

	journal := filepath.Join(t.TempDir(), "sweep.journal")
	journaled := append(argv[:len(argv):len(argv)], "-checkpoint", journal)
	ctx := context.Background()
	if deadline, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline.Add(-5*time.Second))
		t.Cleanup(cancel)
	}
	child := exec.CommandContext(ctx, os.Args[0], journaled...)
	child.Env = append(os.Environ(), sweepChildEnv+"=1")
	var childErr bytes.Buffer
	child.Stderr = &childErr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		child.Wait()
		close(exited)
	}()
	kill := func() {
		child.Process.Kill()
		<-exited
	}
	t.Cleanup(kill)

	// Kill once two records are on disk; reread the journal only when
	// it has grown.
	var size int64 = -1
	for n := 0; n < 2; {
		select {
		case <-exited:
			t.Fatalf("sweep exited (%v) with %d journal record(s), before the kill:\n%s",
				child.ProcessState, n, childErr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if st, err := os.Stat(journal); err == nil && st.Size() != size {
			size = st.Size()
			n = journalRecords(t, journal)
		}
	}
	kill()
	n := journalRecords(t, journal)
	if n < 2 || n >= cells {
		t.Fatalf("the kill left %d record(s), want at least 2 and fewer than %d", n, cells)
	}
	t.Logf("killed with %d of %d record(s) journaled", n, cells)

	// Tear a record onto the tail and zero byte 3, inside the first
	// record's sequence number.
	f, err := os.OpenFile(journal, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(`j2 9999 deadbeef {"torn`), st.Size()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0}, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var fsckOut, fsckErr bytes.Buffer
	if code := cli.Sweep([]string{"-fsck", "-checkpoint", journal}, &fsckOut, &fsckErr); code != 1 {
		t.Fatalf("-fsck of the damaged journal exited %d, want 1:\n%s%s", code, fsckOut.String(), fsckErr.String())
	}

	var got, gotErr bytes.Buffer
	if code := cli.Sweep(journaled, &got, &gotErr); code != 0 {
		t.Fatalf("resumed sweep exited %d: %s", code, gotErr.String())
	}
	if got.String() != ref.String() {
		t.Fatalf("resumed sweep printed\n%s\nwant the uninterrupted run's\n%s", got.String(), ref.String())
	}
	// The zeroed byte broke the first record; every other one resumes,
	// and only the cells the resume recomputed are journaled again.
	if want := fmt.Sprintf("resuming, %d cell(s)", n-1); !strings.Contains(gotErr.String(), want) {
		t.Fatalf("resume stderr does not say %q:\n%s", want, gotErr.String())
	}
	rep, err := experiments.FsckJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.V2 != cells {
		t.Fatalf("journal holds %d intact record(s) after the resume, want one per cell (%d)", rep.V2, cells)
	}
}
