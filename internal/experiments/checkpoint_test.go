package experiments

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nmapsim/internal/core"
	"nmapsim/internal/cpu"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

func checkpointSpecs() []Spec {
	prof := workload.Memcached()
	specs := make([]Spec, 3)
	for i := range specs {
		specs[i] = Spec{
			Policy: "performance",
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

// sameResult asserts the fields a sweep renders (and everything else the
// journal round-trips) are identical between a fresh run and a
// journal-served one, with float fields compared bit for bit.
func sameResult(t *testing.T, tag string, a, b server.Result) {
	t.Helper()
	if a.Summary != b.Summary {
		t.Fatalf("%s: Summary diverged:\n fresh   %+v\n resumed %+v", tag, a.Summary, b.Summary)
	}
	if math.Float64bits(a.EnergyJ) != math.Float64bits(b.EnergyJ) ||
		math.Float64bits(a.AvgPowerW) != math.Float64bits(b.AvgPowerW) {
		t.Fatalf("%s: energy diverged: fresh (%v, %v) resumed (%v, %v)",
			tag, a.EnergyJ, a.AvgPowerW, b.EnergyJ, b.AvgPowerW)
	}
	if a.Completed != b.Completed || a.Drops != b.Drops || a.SLO != b.SLO ||
		math.Float64bits(a.FracOverSLO) != math.Float64bits(b.FracOverSLO) ||
		a.Violated != b.Violated || a.Transitions != b.Transitions ||
		a.Reqs != b.Reqs || a.SockDrops != b.SockDrops {
		t.Fatalf("%s: counters diverged:\n fresh   %+v\n resumed %+v", tag, a, b)
	}
	if !reflect.DeepEqual(a.PerCore, b.PerCore) {
		t.Fatalf("%s: PerCore diverged", tag)
	}
	if a.Hist.N() != b.Hist.N() || a.Hist.P(0.99) != b.Hist.P(0.99) || a.Hist.Max() != b.Hist.Max() {
		t.Fatalf("%s: histogram diverged: n=%d/%d p99=%v/%v",
			tag, a.Hist.N(), b.Hist.N(), a.Hist.P(0.99), b.Hist.P(0.99))
	}
}

// TestCheckpointResumeByteIdentical simulates a sweep killed mid-run:
// a journal holding a prefix of the cells (plus a torn trailing line,
// as a real kill mid-write leaves) is resumed over the full spec list,
// and every result must match an uninterrupted sweep exactly.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	specs := checkpointSpecs()

	// Uninterrupted reference sweep, no journal.
	want, err := new(Harness).RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// "Killed" sweep: the first two cells complete and are journaled.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := (&Harness{Journal: j}).RunSpecs(context.Background(), specs[:2]); err != nil {
		t.Fatalf("partial sweep: %v", err)
	}
	j.Close()

	// The kill interrupts a Record in flight: append a torn line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"spec":"deadbeef","result":{"Ener`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: reopen the journal and run the full sweep.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j2.Close()
	if n := j2.Len(); n != 2 {
		t.Fatalf("journal reloaded %d cells, want 2 (torn line must be dropped)", n)
	}
	got, err := (&Harness{Journal: j2}).RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}

	for i := range specs {
		sameResult(t, specs[i].Policy, want[i].Result, got[i].Result)
	}
	if n := j2.Len(); n != 3 {
		t.Fatalf("journal holds %d cells after resume, want 3", n)
	}
}

func TestSpecHashStableAndDistinct(t *testing.T) {
	var h Harness
	specs := checkpointSpecs()
	h0 := h.SpecHash(specs[0])
	if h0 != h.SpecHash(specs[0]) {
		t.Fatal("SpecHash is not stable for an identical spec")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		k := h.SpecHash(s)
		if seen[k] {
			t.Fatalf("distinct specs collide on hash %s", k)
		}
		seen[k] = true
	}
	other := specs[0]
	other.Idle = "disable"
	if h.SpecHash(other) == h0 {
		t.Fatal("idle policy change did not change the hash")
	}
}

// TestSpecHashPinned pins the journal keys to the values the
// package-global harness produced before Harness existed, so journals
// written by older binaries still resume: a plain spec, the same spec
// under injected faults and retries, under audit and streaming, and a
// spec that sets every field.
func TestSpecHashPinned(t *testing.T) {
	spec := Spec{Policy: "performance", Idle: "menu", Cfg: quickCfg()}
	for _, c := range []struct {
		name string
		h    *Harness
		want string
	}{
		{"plain", &Harness{}, "1510b1972528523d08a2745783fa8c0f"},
		{"faults+retry", &Harness{
			Faults: faults.Config{WireLossProb: 0.02},
			Retry:  workload.RetryConfig{Timeout: 20 * sim.Millisecond},
		}, "654dbedc67824afeef88e2abb48bd815"},
		{"audit+streaming", &Harness{Audit: true, Streaming: true}, "363f749e57dd1447817d5afcb96d0ce7"},
	} {
		if got := c.h.SpecHash(spec); got != c.want {
			t.Errorf("%s: SpecHash = %s, want %s", c.name, got, c.want)
		}
	}
	// The key an older binary, whose Config and RetryConfig still had
	// the fields SpecHash now prints as fixed zeros, gave this spec.
	every, h := everyFieldSpec()
	if got, want := h.SpecHash(every), "11aa3b04dce457b83b7a0211f6d3fa0b"; got != want {
		t.Errorf("every field: SpecHash = %s, want %s", got, want)
	}
}

// everyFieldSpec sets every server.Config and RetryConfig field that is
// still settable to a non-zero value, so TestSpecHashPinned checks the
// zero segments SpecHash splices in next to non-default neighbours.
func everyFieldSpec() (Spec, *Harness) {
	cfg := server.Config{
		Model:          cpu.XeonGold6134,
		Seed:           7,
		Profile:        workload.Nginx(),
		RPS:            12_345,
		Level:          workload.High,
		VariableLevels: []float64{10_000, 20_000},
		SwitchPeriod:   30 * sim.Millisecond,
		NICRing:        256,
		ITR:            20 * sim.Microsecond,
		Flows:          12,
		LumpyRSS:       true,
		Warmup:         -1,
		Duration:       300 * sim.Millisecond,
		ForceChipWide:  true,
		DisablePooling: true,
		Faults: faults.Config{
			WireLossProb:     0.01,
			IRQLossProb:      0.02,
			IRQJitter:        sim.Microsecond,
			DMAJitter:        2 * sim.Microsecond,
			ThrottleRate:     3,
			ThrottleDuration: sim.Millisecond,
			ThrottlePState:   4,
			CoreCrashes:      []faults.CoreCrash{{Core: 1, At: 5 * sim.Millisecond, Duration: sim.Millisecond}},
			QueueStalls:      []faults.QueueStall{{Queue: 2, At: 6 * sim.Millisecond, Duration: sim.Millisecond}},
			LinkSlows:        []faults.LinkSlow{{Node: 1, At: 7 * sim.Millisecond, Duration: sim.Millisecond, Factor: 4}},
		},
		Retry:           workload.RetryConfig{Timeout: 5 * sim.Millisecond, MaxRetries: 2},
		SockQCap:        64,
		ShedSLOMultiple: 1.5,
		MaxEvents:       1 << 30,
		Audit:           true,
		StreamingHist:   true,
	}
	spec := Spec{Policy: "userspace", Idle: "c6only", Cfg: cfg, UserspaceP: 3,
		Thresholds: core.Thresholds{NITh: 16, CUTh: 0.5}}
	h := &Harness{
		Faults:    faults.Config{WireLossProb: 0.03, DMAJitter: sim.Microsecond},
		Retry:     workload.RetryConfig{Timeout: 8 * sim.Millisecond, MaxRetries: 5},
		Audit:     true,
		Streaming: true,
	}
	return spec, h
}
