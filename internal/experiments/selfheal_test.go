package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmapsim/internal/server"
)

// resetSelfHeal restores the orchestration knobs a test touched.
func resetSelfHeal(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetJournal(nil)
		SetCellFault(nil)
		SetCellRetry(HarnessRetry{})
		SetMemoryBudget(0)
	})
}

// TestHarnessRetryDelayShape pins the backoff to the workload
// RetryConfig semantics one layer up: base × 2^(n-1), capped at 10×.
func TestHarnessRetryDelayShape(t *testing.T) {
	r := HarnessRetry{Backoff: 10 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
	}
	for i, w := range want {
		if d := r.Delay(i + 1); d != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, d, w)
		}
	}
	if d := (HarnessRetry{}).Delay(3); d != 0 {
		t.Fatalf("zero backoff must retry immediately, got %v", d)
	}
}

func TestHarnessRetryValidate(t *testing.T) {
	cases := []struct {
		name string
		pol  HarnessRetry
		want string // empty = valid
	}{
		{"zero", HarnessRetry{}, ""},
		{"typical", HarnessRetry{MaxRetries: 3, Backoff: time.Second, Deadline: time.Minute, Quarantine: true}, ""},
		{"negative retries", HarnessRetry{MaxRetries: -1}, "retry budget"},
		{"negative backoff", HarnessRetry{Backoff: -time.Second}, "backoff"},
		{"negative deadline", HarnessRetry{Deadline: -time.Minute}, "deadline"},
	}
	for _, c := range cases {
		err := c.pol.Validate()
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v does not name %q", c.name, err, c.want)
		}
		if SetCellRetry(c.pol) == nil {
			t.Fatalf("%s: SetCellRetry accepted an invalid policy", c.name)
		}
	}
}

// TestCellDeadlineBoundsRetries pins the per-cell deadline: a cell that
// keeps failing must stop retrying once the wall-clock budget is spent,
// with an error naming the deadline.
func TestCellDeadlineBoundsRetries(t *testing.T) {
	resetSelfHeal(t)
	SetCellFault(func(Spec, int) error { return errors.New("always fails") })
	if err := SetCellRetry(HarnessRetry{
		MaxRetries: 1000,
		Backoff:    20 * time.Millisecond,
		Deadline:   50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out := runCellAttempts(context.Background(), cell{spec: Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()}})
	attempts, err := out.Attempts, out.Err
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error %v does not name the deadline", err)
	}
	if attempts >= 1000 {
		t.Fatalf("deadline did not bound the retry loop: %d attempts", attempts)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline loop ran far past its budget")
	}
}

// TestQuarantineBadSpecKeepsSweepAlive puts a pathological config in
// the middle of a quarantined sweep: the sweep must complete, the bad
// cell must be reported (not silently skipped), and the good cells keep
// their results.
func TestQuarantineBadSpecKeepsSweepAlive(t *testing.T) {
	resetSelfHeal(t)
	if err := SetCellRetry(HarnessRetry{Quarantine: true}); err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Policy: "performance", Idle: "menu", Cfg: quickCfg()},
		{Policy: "no-such-policy", Idle: "menu", Cfg: quickCfg()},
		{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()},
	}
	cells, err := RunSpecsCtx(context.Background(), specs)
	if err != nil {
		t.Fatalf("quarantine did not keep the sweep alive: %v", err)
	}
	if !cells[1].Quarantined || cells[1].Err == nil || cells[1].Done {
		t.Fatalf("bad cell not quarantined: %+v", cells[1])
	}
	if !strings.Contains(cells[1].Err.Error(), "no-such-policy") {
		t.Fatalf("quarantine error does not name the bad policy: %v", cells[1].Err)
	}
	for _, i := range []int{0, 2} {
		if !cells[i].Done || cells[i].Quarantined || cells[i].Result.Completed == 0 {
			t.Fatalf("good cell %d damaged by quarantine: %+v", i, cells[i])
		}
	}
}

// TestMemoryBudgetDowngradesNewCells pins the soft watermark: a budget
// below the projected exact-histogram footprint must flip fresh cells
// to the streaming recorder, explicitly marked, while a generous budget
// leaves them exact.
func TestMemoryBudgetDowngradesNewCells(t *testing.T) {
	resetSelfHeal(t)
	spec := Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()}
	est := server.EstimatedHistBytes(spec.Cfg)
	if est <= 0 {
		t.Fatalf("EstimatedHistBytes = %d, want positive", est)
	}

	SetMemoryBudget(est * int64(Parallelism()) * 4)
	cells, err := RunSpecsCtx(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Downgraded || cells[0].Result.Hist.Streaming() {
		t.Fatal("generous budget still downgraded the cell")
	}

	SetMemoryBudget(1)
	cells, err = RunSpecsCtx(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !cells[0].Downgraded || !cells[0].Result.Hist.Streaming() {
		t.Fatalf("tight budget did not downgrade: downgraded=%v streaming=%v",
			cells[0].Downgraded, cells[0].Result.Hist.Streaming())
	}
	if rec := NewRecord(spec, cells[0].Result, false); !rec.Streaming {
		t.Fatal("downgraded cell's archived Record lost its streaming marker")
	}
}

// TestDowngradedCellJournalRoundTrip is the satellite regression: a
// budget-downgraded (exact→streaming) cell journals under the hash of
// the spec as *requested*, and a resume serves it back with the
// streaming marker intact and identical quantiles.
func TestDowngradedCellJournalRoundTrip(t *testing.T) {
	resetSelfHeal(t)
	spec := Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()}
	path := filepath.Join(t.TempDir(), "sweep.journal")

	SetMemoryBudget(1)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	SetJournal(j)
	cells, err := RunSpecsCtx(context.Background(), []Spec{spec})
	SetJournal(nil)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !cells[0].Downgraded {
		t.Fatal("cell was not downgraded")
	}
	want := cells[0].Result

	// Resume with the budget still in place: the journal must serve the
	// downgraded result (keyed by the requested, exact-mode spec) rather
	// than recompute.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 {
		t.Fatalf("journal holds %d cell(s), want 1", j2.Len())
	}
	SetJournal(j2)
	cells2, err := RunSpecsCtx(context.Background(), []Spec{spec})
	SetJournal(nil)
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := cells2[0].Result
	if cells2[0].Attempts != 0 {
		t.Fatalf("journaled cell re-ran (%d attempts)", cells2[0].Attempts)
	}
	if !got.Hist.Streaming() {
		t.Fatal("streaming marker lost through the journal")
	}
	if !bytes.Equal(encode(t, want), encode(t, got)) {
		t.Fatal("downgraded cell diverged through the journal round trip")
	}
}

// failingFile is a JournalFile whose writes start failing after budget
// bytes, with the crossing write landing partially — the in-package
// twin of harnesschaos.ENOSPCFile (which cannot be imported here
// without a cycle).
type failingFile struct {
	*os.File
	budget int64
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errors.New("no space left on device")
	}
	if int64(len(p)) <= f.budget {
		n, err := f.File.Write(p)
		f.budget -= int64(n)
		return n, err
	}
	n, err := f.File.Write(p[:f.budget])
	f.budget -= int64(n)
	if err != nil {
		return n, err
	}
	return n, errors.New("no space left on device")
}

// TestJournalErrorPaths is the satellite table test: every journal
// error path — missing checkpoint directory, journal path that is not a
// writable file, a disk that fills mid-write, cancellation mid-sweep —
// must surface as a descriptive error (never a panic) and must never
// leave a half-written trailing record behind.
func TestJournalErrorPaths(t *testing.T) {
	resetSelfHeal(t)
	t.Run("missing checkpoint directory", func(t *testing.T) {
		_, err := OpenJournal(filepath.Join(t.TempDir(), "no", "such", "dir", "x.journal"))
		if err == nil {
			t.Fatal("OpenJournal on a missing directory returned no error")
		}
	})
	t.Run("journal path is a directory", func(t *testing.T) {
		_, err := OpenJournal(t.TempDir())
		if err == nil {
			t.Fatal("OpenJournal on a directory returned no error")
		}
	})
	t.Run("fsck on missing file", func(t *testing.T) {
		_, err := FsckJournal(filepath.Join(t.TempDir(), "absent.journal"))
		if err == nil {
			t.Fatal("FsckJournal on a missing file returned no error")
		}
	})
	t.Run("write error truncates and sticks", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		res := server.Result{EnergyJ: 1}
		// Budget: the first record fits, the second is cut mid-line.
		probePath := filepath.Join(t.TempDir(), "probe.journal")
		probe, err := OpenJournal(probePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Record("aaaa", res); err != nil {
			t.Fatal(err)
		}
		probe.Close()
		st, err := os.Stat(probePath)
		if err != nil {
			t.Fatal(err)
		}

		j, err := NewJournal(&failingFile{File: f, budget: st.Size() + 10}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("aaaa", res); err != nil {
			t.Fatalf("first record failed: %v", err)
		}
		err = j.Record("bbbb", res)
		if !errors.Is(err, ErrJournalWrite) {
			t.Fatalf("short write surfaced as %v, want ErrJournalWrite", err)
		}
		if err2 := j.Record("cccc", res); !errors.Is(err2, ErrJournalWrite) {
			t.Fatalf("journal did not stay read-only after the write error: %v", err2)
		}
		j.Close()
		rep, err := FsckJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() || rep.Cells != 1 {
			t.Fatalf("half-written record left behind: %+v", rep)
		}
	})
	t.Run("cancellation mid-sweep leaves a clean journal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel while the second cell runs: the first cell's record is
		// already durable; nothing may be half-written.
		n := 0
		SetCellFault(func(Spec, int) error {
			n++
			if n == 2 {
				cancel()
			}
			return nil
		})
		defer cancel()
		specs := make([]Spec, 3)
		for i := range specs {
			specs[i] = Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()}
			specs[i].Cfg.RPS = 1000 * float64(i+1)
		}
		SetJournal(j)
		withParallelism(t, 1, func() {
			_, err = RunSpecsCtx(ctx, specs)
		})
		SetJournal(nil)
		j.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		rep, err := FsckJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("cancellation left a damaged journal: %+v", rep)
		}
	})
}

// TestJournalV1StillLoads strips the v2 framing off a freshly written
// journal, leaving exactly the v1 format (bare JSON object per line),
// and requires the loader to serve it unchanged — pre-v2 journals must
// resume without recomputation.
func TestJournalV1StillLoads(t *testing.T) {
	resetSelfHeal(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("cell-1", server.Result{EnergyJ: 3.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("cell-2", server.Result{EnergyJ: 7.25}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Rewrite as v1: drop the "j2 <seq> <crc> " prefix from every line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		parts := bytes.SplitN(line, []byte(" "), 4)
		if len(parts) != 4 {
			t.Fatalf("unexpected v2 line %q", line)
		}
		v1.Write(parts[3])
		v1.WriteByte('\n')
	}
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep := j2.LoadReport()
	if rep.V1 != 2 || rep.V2 != 0 || !rep.Clean() {
		t.Fatalf("v1 journal misread: %+v", rep)
	}
	res, ok := j2.Lookup("cell-2")
	if !ok || res.EnergyJ != 7.25 {
		t.Fatalf("v1 entry lost: ok=%v res=%+v", ok, res)
	}
	// Appending to a v1 journal writes v2 records; both load together.
	if err := j2.Record("cell-3", server.Result{EnergyJ: 9}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rep2, err := FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.V1 != 2 || rep2.V2 != 1 || rep2.Cells != 3 || !rep2.Clean() {
		t.Fatalf("mixed v1/v2 journal misread: %+v", rep2)
	}
}

// TestJournalTornTailHealed pins the open-time healing: a journal whose
// file ends mid-line (kill mid-write) is truncated back to the last
// complete record, so the next append starts on a fresh line instead of
// merging into garbage.
func TestJournalTornTailHealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("cell-1", server.Result{EnergyJ: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "j2 2 00000000 {\"spec\":\"torn")
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.LoadReport().TornTail {
		t.Fatal("torn tail not detected")
	}
	if err := j2.Record("cell-2", server.Result{EnergyJ: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= good.Size() {
		t.Fatal("append after healing did not grow the file")
	}
	rep, err := FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Cells != 2 {
		t.Fatalf("healed journal not clean: %+v", rep)
	}
}

// TestFsckCountsAllDamageClasses crafts one journal holding every
// damage class at once and checks the report separates them.
func TestFsckCountsAllDamageClasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []string{"cell-1", "cell-2", "cell-3", "cell-4"} {
		if err := j.Record(h, server.Result{EnergyJ: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ls := bytes.SplitAfter(b, []byte("\n"))
	var out bytes.Buffer
	out.Write(ls[0]) // seq 1: intact
	// seq 2: flip a payload byte — bad CRC.
	bad := append([]byte(nil), ls[1]...)
	bad[len(bad)/2] ^= 0x01
	out.Write(bad)
	// seq 3: dropped entirely — a sequence gap.
	out.Write(ls[3]) // seq 4: intact
	out.Write(ls[3]) // seq 4 again: duplicate
	out.WriteString("not a journal line at all\n")
	out.WriteString("j2 9 0badc0de {\"spec\":\"torn") // torn tail
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("damaged journal reported clean")
	}
	if rep.BadCRC != 1 || rep.DupSeq != 1 || rep.Torn != 2 || !rep.TornTail {
		t.Fatalf("damage misclassified: %+v", rep)
	}
	if rep.SeqGaps < 1 {
		t.Fatalf("dropped record not reported as a gap: %+v", rep)
	}
	if rep.Cells != 2 {
		t.Fatalf("loadable cells = %d, want 2 (seq 1 and 4)", rep.Cells)
	}
	if !strings.Contains(rep.String(), "damaged") {
		t.Fatalf("report does not render its verdict: %s", rep)
	}
}
