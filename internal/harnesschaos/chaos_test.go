package harnesschaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmapsim/internal/experiments"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// The chaos gate: for every harness fault — kill mid-sweep, torn
// journal line, corrupted CRC, duplicated record, flaky cell, poison
// cell, simulated ENOSPC — the recovered sweep must render byte-for-byte
// what an unfaulted sweep renders. Every cell is a deterministic seeded
// run, so any divergence is a harness bug, not noise.

func chaosSpecs() []experiments.Spec {
	prof := workload.Memcached()
	specs := make([]experiments.Spec, 3)
	for i := range specs {
		specs[i] = experiments.Spec{
			Policy: "performance",
			Idle:   "menu",
			Cfg: server.Config{
				Seed:     42,
				Profile:  prof,
				RPS:      prof.HighRPS * float64(i+1) / 8,
				Warmup:   10 * sim.Millisecond,
				Duration: 40 * sim.Millisecond,
			},
		}
	}
	return specs
}

// results returns each cell's Result, in order.
func results(cells []experiments.CellResult) []server.Result {
	out := make([]server.Result, len(cells))
	for i, c := range cells {
		out[i] = c.Result
	}
	return out
}

// render canonicalises sweep results for byte comparison.
func render(t *testing.T, results []server.Result) []byte {
	t.Helper()
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return b
}

// reference runs the unfaulted, unjournaled sweep.
func reference(t *testing.T, specs []experiments.Spec) []byte {
	t.Helper()
	cells, err := new(experiments.Harness).RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return render(t, results(cells))
}

// resumeAndCompare opens the (possibly damaged) journal at path, runs
// the full sweep against it, and requires byte-identity with ref.
func resumeAndCompare(t *testing.T, path string, specs []experiments.Spec, ref []byte) {
	t.Helper()
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	cells, err := (&experiments.Harness{Journal: j}).RunSpecs(context.Background(), specs)
	j.Close()
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := render(t, results(cells)); !bytes.Equal(got, ref) {
		t.Fatalf("resumed sweep diverged from the unfaulted run:\n got  %d bytes\n want %d bytes", len(got), len(ref))
	}
}

// journalPrefix journals the first n cells of the sweep to path.
func journalPrefix(t *testing.T, path string, specs []experiments.Spec, n int) {
	t.Helper()
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	_, err = (&experiments.Harness{Journal: j}).RunSpecs(context.Background(), specs[:n])
	j.Close()
	if err != nil {
		t.Fatalf("prefix sweep: %v", err)
	}
}

// TestChaosKillMidSweep simulates a kill that lands mid-Record: two
// cells journaled, then a torn fragment of a third. The resume must
// drop the fragment and recompute only what is missing.
func TestChaosKillMidSweep(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, 2)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`j2 3 deadbeef {"spec":"abcd","result":{"Ener`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumeAndCompare(t, path, specs, ref)
}

// TestChaosTornLine truncates the journal mid-record after a clean
// sweep: the torn tail must be detected, dropped, and recomputed.
func TestChaosTornLine(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, len(specs))

	if err := TruncateTail(path, 20); err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || !rep.TornTail {
		t.Fatalf("fsck missed the torn tail: %+v", rep)
	}
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosCorruptedCRC flips a byte inside a journaled record: the
// checksum must reject the record and the resume recomputes that cell.
func TestChaosCorruptedCRC(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, len(specs))

	if err := CorruptLine(path, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.BadCRC == 0 {
		t.Fatalf("fsck missed the corrupted record: %+v", rep)
	}
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosDuplicatedLine replays a journal record: the duplicated
// sequence number must be detected and the duplicate dropped.
func TestChaosDuplicatedLine(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, len(specs))

	if err := DuplicateLine(path, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.DupSeq != 1 {
		t.Fatalf("fsck missed the duplicated record: %+v", rep)
	}
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosFlakyCellRecovered fails one cell's first two attempts: the
// retry policy must carry it to success with results byte-identical to
// a run that never failed.
func TestChaosFlakyCellRecovered(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)

	target := specs[1].Cfg.RPS
	h := &experiments.Harness{
		CellFault: FailingCells(func(s experiments.Spec) bool {
			return s.Cfg.RPS == target
		}, 2),
		CellRetries: 3,
	}
	cells, err := h.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("flaky sweep did not recover: %v", err)
	}
	if cells[1].Attempts != 3 {
		t.Fatalf("flaky cell ran %d attempt(s), want 3", cells[1].Attempts)
	}
	if cells[0].Attempts != 1 || cells[2].Attempts != 1 {
		t.Fatalf("healthy cells retried: %d, %d attempts", cells[0].Attempts, cells[2].Attempts)
	}
	if got := render(t, results(cells)); !bytes.Equal(got, ref) {
		t.Fatal("recovered flaky sweep diverged from the unfaulted run")
	}
}

// TestChaosPoisonCellQuarantined gives one cell a permanent harness
// fault: with quarantine on, the sweep must finish, report the poison
// cell explicitly, keep it out of the journal, and heal completely on a
// fault-free resume.
func TestChaosPoisonCellQuarantined(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")

	target := specs[1].Cfg.RPS
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	h := &experiments.Harness{
		Journal: j,
		CellFault: FailingCells(func(s experiments.Spec) bool {
			return s.Cfg.RPS == target
		}, -1),
		CellRetries: 1,
		Quarantine:  true,
	}
	cells, err := h.RunSpecs(context.Background(), specs)
	j.Close()
	if err != nil {
		t.Fatalf("quarantine did not keep the sweep alive: %v", err)
	}
	if !cells[1].Quarantined || cells[1].Err == nil {
		t.Fatalf("poison cell not quarantined: %+v", cells[1])
	}
	if !strings.Contains(cells[1].Err.Error(), "poison") {
		t.Fatalf("quarantine error does not carry the cause: %v", cells[1].Err)
	}
	if cells[0].Quarantined || cells[2].Quarantined {
		t.Fatal("healthy cells quarantined")
	}
	var want []server.Result
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if !bytes.Equal(render(t, []server.Result{cells[i].Result}), render(t, []server.Result{want[i]})) {
			t.Fatalf("healthy cell %d diverged under quarantine", i)
		}
	}

	// The poison cell must not be journaled; a fault-free resume heals.
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosENOSPC runs a journaled sweep against a disk that fills up
// mid-record: the sweep must still compute every cell, surface
// ErrJournalWrite exactly once, leave no half-written record behind,
// and resume to byte-identity once space is back.
func TestChaosENOSPC(t *testing.T) {
	specs := chaosSpecs()
	ref := reference(t, specs)

	// Learn the first record's size from a throwaway journal so the
	// budget lands mid-way through the second record.
	probe := filepath.Join(t.TempDir(), "probe.journal")
	journalPrefix(t, probe, specs, 1)
	st, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j, err := experiments.NewJournal(&ENOSPCFile{F: f, Budget: st.Size() + 37}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One worker journals the cells in spec order, so the first record
	// written is the one the probe measured and the budget runs out
	// inside the second; on a wider pool a larger cell may finish first
	// and overrun the budget on its own.
	cells, err := (&experiments.Harness{Journal: j, Parallel: 1}).RunSpecs(context.Background(), specs)
	j.Close()
	if !errors.Is(err, experiments.ErrJournalWrite) {
		t.Fatalf("full disk not surfaced as ErrJournalWrite: %v", err)
	}
	for i, c := range cells {
		if !c.Done {
			t.Fatalf("cell %d lost to a full disk: %v", i, c.Err)
		}
	}
	if got := render(t, results(cells)); !bytes.Equal(got, ref) {
		t.Fatal("ENOSPC sweep results diverged from the unfaulted run")
	}

	// No half-written record may survive: the journal truncated back to
	// the last good record, so fsck is clean and only cell 1 is stored.
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("journal left damage behind after ENOSPC: %+v", rep)
	}
	if rep.Cells != 1 {
		t.Fatalf("journal holds %d cell(s) after ENOSPC, want 1", rep.Cells)
	}
	resumeAndCompare(t, path, specs, ref)
}
