package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// quickCfg is a short memcached run: long enough to exercise bursts,
// short enough to keep the determinism matrix fast.
func quickCfg() server.Config {
	return server.Config{
		Seed:     42,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   50 * sim.Millisecond,
		Duration: 150 * sim.Millisecond,
	}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunMatrixParallelDeterminism is the harness contract: the matrix
// fan-out must be byte-for-byte identical to the serial run — same cell
// order, same results — for any worker count. Every cell owns its engine
// and PRNG, so parallelism cannot leak into the physics.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	policies := []string{"ondemand", "nmap"}
	idles := []string{"menu"}

	var serial, parallel []byte
	for _, run := range []struct {
		workers int
		out     *[]byte
	}{{1, &serial}, {8, &parallel}} {
		cells, err := (&Harness{Parallel: run.workers}).runMatrix(policies, idles, Quick)
		if err != nil {
			t.Fatal(err)
		}
		*run.out = encode(t, cells)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("runMatrix output differs between serial and 8-way parallel runs:\nserial:   %.400s\nparallel: %.400s",
			serial, parallel)
	}
}

// TestRunSpecsOrderAndErrors checks ordered collection and the error
// path: results come back in input order, and a bad spec surfaces as an
// error rather than a panic.
func TestRunSpecsOrderAndErrors(t *testing.T) {
	h := &Harness{Parallel: 4}
	specs := []Spec{
		{Policy: "performance", Idle: "menu", Cfg: quickCfg()},
		{Policy: "ondemand", Idle: "menu", Cfg: quickCfg()},
	}
	results, err := h.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	// performance pins P0 throughout, so it must burn at least as much
	// energy as ondemand on the same workload — a cheap check that
	// results were not collected out of order.
	if results[0].EnergyJ <= results[1].EnergyJ {
		t.Errorf("results look swapped: performance %.1fJ <= ondemand %.1fJ",
			results[0].EnergyJ, results[1].EnergyJ)
	}

	if _, err := h.RunSpecs([]Spec{{Policy: "no-such-policy", Cfg: quickCfg()}}); err == nil {
		t.Fatal("RunSpecs accepted an unknown policy")
	}
}

// TestSetParallelismClamps: a negative width clamps to the default (one
// worker per CPU), so there is nothing to restore afterwards.
func TestSetParallelismClamps(t *testing.T) {
	SetParallelism(-5)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d, want >= 1", Parallelism())
	}
}
