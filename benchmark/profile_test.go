package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// burn spins for d so the CPU profiler has something to sample.
//
//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	burn(500 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded from a 500ms CPU burn")
	}
	var total layerCost
	for _, s := range p.samples {
		total.Samples += s.values[0]
		total.Ns += s.values[1]
	}
	got := attribute(p)
	var sum layerCost
	for l, c := range got {
		if !slices.Contains(layers, l) {
			t.Errorf("attribution produced unknown layer %q", l)
		}
		sum.Samples += c.Samples
		sum.Ns += c.Ns
	}
	if sum != total {
		t.Errorf("layer sums %+v, want the profile total %+v", sum, total)
	}
	// burn lives in this file, so its samples belong to the benchmark.
	if got["bench"].Samples == 0 {
		t.Errorf("no sample attributed to bench: %+v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted a non-gzip input")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{repoRoot + "internal/sim/rng.go", "sim.rng"},
		{repoRoot + "internal/sim/calendar.go", "sim.engine"},
		{repoRoot + "internal/stats/hist.go", "stats"},
		{repoRoot + "internal/baselines/ncap.go", "governor"},
		{repoRoot + "internal/report/report.go", "experiments"},
		{repoRoot + "benchmark/main.go", "bench"},
		// A -trimpath build names the simulator's files by module version.
		{strings.TrimSuffix(repoRoot, "/") + "@v0.0.0/internal/sim/rng.go", "sim.rng"},
		{strings.TrimSuffix(repoRoot, "/") + "@v0.0.0/internal/nic/nic.go", "nic"},
		{"math/exp.go", ""},
		{"runtime/mgc.go", ""},
		{"/usr/local/go/src/internal/runtime/atomic/types.go", ""},
	} {
		if got := layerOf(tc.file); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.file, got, tc.want)
		}
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	// Locations are listed leaf first; within a location the innermost
	// inlined frame comes first.
	p := &profile{frames: map[uint64][]string{
		// math.Exp called from (*RNG).Exp.
		1: {"math/exp.go"},
		2: {repoRoot + "internal/sim/rng.go"},
		// slices.Sort called from (*Hist).sortSamples.
		3: {"slices/sort.go"},
		4: {repoRoot + "internal/stats/hist.go"},
		// A workload closure inlined into the benchmark's main.
		5: {repoRoot + "internal/workload/workload.go", repoRoot + "benchmark/main.go"},
		// A GC worker.
		6: {"runtime/mgcmark.go", "runtime/mgc.go"},
		// The kernel calling into both of the first two stacks.
		7: {repoRoot + "internal/kernel/kernel.go"},
	}}
	for _, s := range []struct {
		locs []uint64
		ns   int64
	}{
		{[]uint64{1, 2, 7}, 10},
		{[]uint64{3, 4, 7}, 20},
		{[]uint64{5}, 40},
		{[]uint64{6}, 80},
	} {
		p.samples = append(p.samples, profSample{locs: s.locs, values: []int64{1, s.ns}})
	}
	got := attribute(p)
	want := map[string]layerCost{
		"sim.rng":  {1, 10},
		"stats":    {1, 20},
		"workload": {1, 40},
		"runtime":  {1, 80},
	}
	if len(got) != len(want) {
		t.Errorf("attribute = %+v, want %+v", got, want)
	}
	for l, c := range want {
		if got[l] != c {
			t.Errorf("layer %s = %+v, want %+v", l, got[l], c)
		}
	}
}
