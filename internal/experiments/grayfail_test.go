package experiments

import (
	"strings"
	"testing"
)

// fig-grayfail is deterministic and byte-identical at any parallelism:
// a serial run and a 4-worker run of the same scenario render to the
// same bytes, every arm completes, and both figure-level health
// mechanisms visibly engage (the damped arm flaps less than the naive
// one, the hedged arm dispatches hedges).
func TestFigGrayFailDeterministicAcrossParallelism(t *testing.T) {
	serial, err := (&Harness{Parallel: 1}).FigGrayFail(Quick, 3, "rr")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := (&Harness{Parallel: 4}).FigGrayFail(Quick, 3, "rr")
	if err != nil {
		t.Fatal(err)
	}
	rs, rw := RenderGrayFail(serial), RenderGrayFail(wide)
	if rs != rw {
		t.Fatalf("serial and 4-way fig-grayfail renders diverge:\n--- serial ---\n%s\n--- wide ---\n%s", rs, rw)
	}

	if len(serial.Arms) != 3 {
		t.Fatalf("got %d arms, want 3", len(serial.Arms))
	}
	byName := map[string]ClusterArm{}
	for _, arm := range serial.Arms {
		if !arm.Done {
			t.Fatalf("arm %q did not complete", arm.Name)
		}
		byName[arm.Name] = arm
	}
	naive, damped, hedged := byName["health-naive"], byName["flap-damped"], byName["flap-damped+hedged"]
	if naive.Result.MarkDowns == 0 {
		t.Fatal("the naive prober never marked the gray node down — the link schedule is invisible")
	}
	if n, d := naive.Result.MarkDowns+naive.Result.MarkUps, damped.Result.MarkDowns+damped.Result.MarkUps; d > n {
		t.Fatalf("flap damping increased transitions: naive %d, damped %d", n, d)
	}
	if hedged.Result.Front.Hedges == 0 {
		t.Fatal("the hedged arm dispatched no hedges against a gray link")
	}
	if !strings.Contains(rs, "one-way cut (responses)") {
		t.Fatalf("render missing the link schedule header:\n%s", rs)
	}
	if !strings.Contains(rs, "hedge: dispatched=") {
		t.Fatalf("render missing the hedge ledger line:\n%s", rs)
	}
}

// fig-grayfail refuses a single-node fleet: a gray link needs a peer to
// steer around.
func TestFigGrayFailRejectsSingleNode(t *testing.T) {
	if _, err := new(Harness).FigGrayFail(Quick, 1, "rr"); err == nil ||
		!strings.Contains(err.Error(), "at least 2 nodes") {
		t.Fatalf("err = %v, want the 2-node floor", err)
	}
}

// fig-cluster is byte-identical across worker-pool widths too — the
// hedged variant included, so the hedge ledger itself is replay-stable.
func TestFigClusterParallelismByteIdentical(t *testing.T) {
	serial, err := (&Harness{Parallel: 1}).FigCluster(Quick, 2, "rr", true)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := (&Harness{Parallel: 4}).FigCluster(Quick, 2, "rr", true)
	if err != nil {
		t.Fatal(err)
	}
	if rs, rw := RenderCluster(serial), RenderCluster(wide); rs != rw {
		t.Fatalf("serial and 4-way fig-cluster renders diverge:\n--- serial ---\n%s\n--- wide ---\n%s", rs, rw)
	}
}
