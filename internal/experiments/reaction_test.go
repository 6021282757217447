package experiments

import (
	"testing"

	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// synthetic trace: two bursts (bins 10-29 and 60-79), P0 reached at
// bins 15 and 62.
func syntheticTrace() TraceFigure {
	tf := TraceFigure{Ms: 100}
	tf.PktIntr = make([]float64, 100)
	tf.PktPoll = make([]float64, 100)
	tf.PState = make([]float64, 100)
	for i := range tf.PState {
		tf.PState[i] = 15
	}
	for i := 10; i < 30; i++ {
		tf.PktIntr[i] = 50
	}
	for i := 60; i < 80; i++ {
		tf.PktIntr[i] = 50
	}
	for i := 15; i < 35; i++ {
		tf.PState[i] = 0
	}
	for i := 62; i < 85; i++ {
		tf.PState[i] = 0
	}
	return tf
}

func TestReactionTimesSynthetic(t *testing.T) {
	rt := syntheticTrace().reactionTimes(5)
	if rt.Bursts != 2 || rt.Boosted != 2 {
		t.Fatalf("bursts=%d boosted=%d, want 2/2", rt.Bursts, rt.Boosted)
	}
	if rt.PerBurstMs[0] != 5 || rt.PerBurstMs[1] != 2 {
		t.Fatalf("per-burst = %v, want [5 2]", rt.PerBurstMs)
	}
	if rt.MeanMs != 3.5 || rt.MaxMs != 5 {
		t.Fatalf("mean=%f max=%f", rt.MeanMs, rt.MaxMs)
	}
}

func TestReactionTimesNeverBoosted(t *testing.T) {
	tf := syntheticTrace()
	for i := range tf.PState {
		tf.PState[i] = 15 // never reaches P0
	}
	rt := tf.reactionTimes(5)
	if rt.Boosted != 0 || rt.Bursts != 2 {
		t.Fatalf("bursts=%d boosted=%d", rt.Bursts, rt.Boosted)
	}
	for _, d := range rt.PerBurstMs {
		if d != -1 {
			t.Fatalf("unboosted burst delay = %f, want -1", d)
		}
	}
}

// End-to-end: NMAP's measured reaction must be decisively faster than
// ondemand's — the paper's headline mechanism, as a regression test.
func TestReactionNMAPFasterThanOndemand(t *testing.T) {
	if testing.Short() {
		t.Skip("trace runs are slow")
	}
	window := 300 * sim.Millisecond
	od, err := new(Harness).RunTrace(workload.Memcached(), workload.High, "ondemand", "menu", window, Quick)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := new(Harness).RunTrace(workload.Memcached(), workload.High, "nmap", "menu", window, Quick)
	if err != nil {
		t.Fatal(err)
	}
	rtOD := od.reactionTimes(5)
	rtNM := nm.reactionTimes(5)
	if rtNM.Bursts == 0 || rtOD.Bursts == 0 {
		t.Fatalf("no bursts detected: nmap=%d ondemand=%d", rtNM.Bursts, rtOD.Bursts)
	}
	if rtNM.Boosted == 0 {
		t.Fatal("NMAP never reached P0 during a burst")
	}
	if rtNM.MeanMs >= rtOD.MeanMs {
		t.Fatalf("NMAP reaction %.1fms not faster than ondemand %.1fms", rtNM.MeanMs, rtOD.MeanMs)
	}
	if rtNM.MeanMs > 5 {
		t.Fatalf("NMAP mean reaction %.1fms, want early-burst (<5ms)", rtNM.MeanMs)
	}
}
