package experiments

import (
	"testing"

	"nmapsim/internal/workload"
)

func TestFindInflectionLocatesKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	prof := workload.Memcached()
	inf, err := new(Harness).FindInflection(prof, 100_000, 900_000, 5, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Curve) != 5 {
		t.Fatalf("curve points = %d", len(inf.Curve))
	}
	// The memcached substitute saturates between medium and beyond-high:
	// the knee must land in the upper half of the sweep.
	if inf.RPS < 500_000 {
		t.Fatalf("knee at %.0f RPS, want the upper half of the range", inf.RPS)
	}
	// P99 must be increasing across the curve overall.
	if inf.Curve[len(inf.Curve)-1].P99 <= inf.Curve[0].P99 {
		t.Fatal("latency-load curve not increasing")
	}
}

func TestFindInflectionNoKneeFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	prof := workload.Memcached()
	// Sweep entirely in the flat region: no knee → last point reported.
	inf, err := new(Harness).FindInflection(prof, 10_000, 50_000, 3, Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range inf.Curve[1:] {
		if float64(pt.P99) > kneeFactor*float64(inf.Curve[0].P99) {
			t.Fatalf("the flat region has a knee at %.0f RPS: %v", pt.RPS, inf.Curve)
		}
	}
	if inf.RPS != 50_000 {
		t.Fatalf("fallback knee at %.0f, want the range end", inf.RPS)
	}
}
