package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"nmapsim/internal/core"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

func TestRecordRoundTrip(t *testing.T) {
	spec := quickSpec("nmap")
	res, err := runSpec(new(Harness), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecord(spec, res, true)
	if rec.App != "memcached" || rec.Policy != "nmap" || rec.Idle != "menu" {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if rec.Level != "low" {
		t.Fatalf("level = %q", rec.Level)
	}
	if len(rec.CDF) == 0 {
		t.Fatal("CDF missing")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip returned %d records", len(back))
	}
	if back[0].P99Ms != rec.P99Ms || back[0].EnergyJ != rec.EnergyJ ||
		back[0].App != rec.App || len(back[0].CDF) != len(rec.CDF) {
		t.Fatal("fields lost in round trip")
	}
}

func TestSchedutilPolicyBuilds(t *testing.T) {
	res, err := runSpec(new(Harness), quickSpec("schedutil"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N == 0 {
		t.Fatal("schedutil run empty")
	}
}

func TestExtensionPoliciesRun(t *testing.T) {
	for _, pol := range []string{"nmap-online", "nmap-sleep"} {
		spec := quickSpec(pol)
		res, err := runSpec(new(Harness), spec)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Summary.N == 0 {
			t.Fatalf("%s run empty", pol)
		}
	}
}

func TestFlowsOverrideChangesBalance(t *testing.T) {
	run := func(flows int) (minDone, maxDone uint64) {
		cfg := server.Config{
			Seed: 5, Profile: workload.Memcached(), Level: workload.Medium,
			Flows:  flows,
			Warmup: 50 * sim.Millisecond, Duration: 200 * sim.Millisecond,
		}
		s, err := Build(Spec{Policy: "performance", Idle: "menu", Cfg: cfg,
			Thresholds: core.Thresholds{NITh: 32, CUTh: 0.25}})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		minDone, maxDone = ^uint64(0), 0
		for _, k := range s.Kernels {
			d := k.Counters().Completed
			if d < minDone {
				minDone = d
			}
			if d > maxDone {
				maxDone = d
			}
		}
		return
	}
	minE, maxE := run(40)
	minL, maxL := run(9)
	evenSpread := float64(maxE) / float64(minE+1)
	lumpySpread := float64(maxL) / float64(minL+1)
	if lumpySpread <= evenSpread {
		t.Fatalf("9 flows spread %.2f not lumpier than 40 flows %.2f", lumpySpread, evenSpread)
	}
}

func TestPegasusPolicyBuilds(t *testing.T) {
	res, err := runSpec(new(Harness), quickSpec("pegasus"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N == 0 {
		t.Fatal("pegasus run empty")
	}
}

func TestMicroServiceProfile(t *testing.T) {
	p := microService()
	if p.SLO != 90*sim.Microsecond {
		t.Fatalf("usvc SLO = %v", p.SLO)
	}
	rng := sim.NewRNG(1)
	var sum float64
	for i := 0; i < 50000; i++ {
		sum += p.SampleAppCycles(rng)
	}
	if m := sum / 50000; m < 3800 || m > 4200 {
		t.Fatalf("usvc mean cycles %f, want ~4000", m)
	}
}

func TestAblationMicroSLOShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cells, err := new(Harness).ablationMicroSLO(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]MicroSLOCell{}
	for _, c := range cells {
		byKey[c.Policy+"/"+c.Idle] = c
	}
	dis := byKey["performance/disable"]
	menu := byKey["performance/menu"]
	c6 := byKey["performance/c6only"]
	// §8 shape: at a µs-scale SLO the sleep policy orders the tail...
	if !(dis.P99 < menu.P99 && menu.P99 < c6.P99) {
		t.Fatalf("P99 order wrong: disable %v, menu %v, c6only %v", dis.P99, menu.P99, c6.P99)
	}
	// ...and the energy order is the reverse.
	if !(dis.EnergyJ > menu.EnergyJ && menu.EnergyJ > c6.EnergyJ) {
		t.Fatalf("energy order wrong: %f %f %f", dis.EnergyJ, menu.EnergyJ, c6.EnergyJ)
	}
	if dis.Violated {
		t.Fatal("disable must meet the µs SLO")
	}
	if !c6.Violated {
		t.Fatal("c6only must violate the µs SLO (wake + flush penalty)")
	}
}
