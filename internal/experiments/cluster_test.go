package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nmapsim/internal/cluster"
	"nmapsim/internal/sim"
)

// Cancelling the context aborts a fleet cell at the next simulated
// millisecond: the harness guard is the only cancel path, and the
// partial Result still carries every node in input order.
func TestFleetCellCtxCancelAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Spec{Policy: "ondemand", Idle: "menu", Cfg: quickCfg(), Fleet: &cluster.Config{Nodes: 3}}
	var eng *sim.Engine
	outs, err := new(Harness).runCells(ctx, []cell{{spec: spec, observeFleet: func(cl *cluster.Cluster) {
		eng = cl.Eng
		cancel() // the cell has started, so only its guard can stop it
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	c := outs[0]
	if c.Done || !errors.Is(c.Err, context.Canceled) || !strings.Contains(c.Err.Error(), "canceled") {
		t.Fatalf("cancelled cell: done=%v err=%v", c.Done, c.Err)
	}
	if len(c.Fleet.Nodes) != 3 {
		t.Fatalf("cancelled result has %d node entries, want all 3 in input order", len(c.Fleet.Nodes))
	}
	if got := sim.Duration(eng.Now()); got > sim.Millisecond {
		t.Fatalf("engine ran to %v after the cancel", got)
	}
}

// Interrupting fig-cluster mid-run checkpoints what is in hand: the
// in-flight arm is kept as a partial result with every node's summary
// present in input order, untouched arms are absent, and the figure
// still renders.
func TestFigClusterCtxCancelCheckpointsPartial(t *testing.T) {
	// Pin the worker pool to one so exactly the first arm is in flight
	// at the deadline regardless of the host's core count.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	fig, err := (&Harness{Parallel: 1}).figClusterCtx(ctx, Quick, 3, "rr", false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the ctx cause", err)
	}
	if len(fig.Arms) != 1 {
		t.Fatalf("got %d arms, want only the interrupted first arm", len(fig.Arms))
	}
	arm := fig.Arms[0]
	if arm.Done {
		t.Fatal("interrupted arm marked Done")
	}
	if len(arm.Result.Nodes) != 3 {
		t.Fatalf("partial arm kept %d node results, want all 3 in input order", len(arm.Result.Nodes))
	}
	out := renderCluster("Fig cluster", fig)
	if !strings.Contains(out, "(partial)") {
		t.Fatal("render does not flag the interrupted arm as partial")
	}
}

// A pre-cancelled ctx yields no arms at all — nothing ran, nothing is
// fabricated.
func TestFigClusterCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fig, err := new(Harness).figClusterCtx(ctx, Quick, 2, "rr", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(fig.Arms) != 0 {
		t.Fatalf("pre-cancelled run fabricated %d arms", len(fig.Arms))
	}
}

// The default scenario actually exercises the resteer path. The
// figure's bytes, at -parallel 1 and 4, are pinned by the golden case
// fig-cluster-audit-nodes3.
func TestFigClusterDeterministic(t *testing.T) {
	a, err := new(Harness).figClusterCtx(context.Background(), Quick, 2, "rr", false)
	if err != nil {
		t.Fatal(err)
	}
	ra := renderCluster("Fig cluster", a)
	var resteers uint64
	for _, arm := range a.Arms {
		resteers += arm.Result.Front.Resteers
	}
	if resteers == 0 {
		t.Fatal("default node-crash scenario produced no resteers — the crash missed the burst window")
	}
	if !strings.Contains(ra, "offline-nodes") {
		t.Fatalf("render missing the offline-node timeline:\n%s", ra)
	}
}

// The fleet figures run their arms through the same guarded cell runner
// as every other figure: a per-cell wall-clock budget aborts each arm
// and surfaces as the figure's error instead of being ignored.
func TestFleetFiguresHonourRunTimeout(t *testing.T) {
	h := &Harness{RunTimeout: time.Nanosecond}
	if _, err := h.figClusterCtx(context.Background(), Quick, 2, "rr", false); err == nil || !strings.Contains(err.Error(), "wall-clock budget") {
		t.Fatalf("fig-cluster err = %v, want the wall-clock budget error", err)
	}
	if _, err := h.figGrayFailCtx(context.Background(), Quick, 2, "rr"); err == nil || !strings.Contains(err.Error(), "wall-clock budget") {
		t.Fatalf("fig-grayfail err = %v, want the wall-clock budget error", err)
	}
}
