package stats

import (
	"bytes"
	"encoding/json"
	"testing"

	"nmapsim/internal/sim"
)

// sampleStream is a deterministic latency stream with sub-µs, mid-range
// and clamp-region values.
func sampleStream(n int) []sim.Duration {
	out := make([]sim.Duration, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = sim.Duration(x % 50_000_000) // 0..50ms
	}
	return out
}

func fill(h *Hist, samples []sim.Duration) {
	for _, s := range samples {
		h.Add(s)
	}
}

// TestHistResetExactMode pins Reset for the exact recorder: a reused
// histogram must report byte-identical state to a fresh one, and
// refilling within the retained capacity must not allocate.
func TestHistResetExactMode(t *testing.T) {
	samples := sampleStream(4096)
	fresh := NewHist(len(samples))
	fill(fresh, samples)
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := fresh.Summarize()

	reused := NewHist(len(samples))
	fill(reused, sampleStream(1000)) // dirty it, force a sort
	reused.Summarize()
	reused.Reset()
	if reused.N() != 0 || reused.Mean() != 0 || reused.Min() != 0 || reused.Max() != 0 {
		t.Fatalf("Reset left state behind: n=%d mean=%v min=%v max=%v",
			reused.N(), reused.Mean(), reused.Min(), reused.Max())
	}
	fill(reused, samples)
	got, err := json.Marshal(reused)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("reused exact histogram diverged from a fresh one")
	}
	if g, w := reused.Summarize(), wantSum; g != w {
		t.Fatalf("summary diverged after reuse: %+v vs %+v", g, w)
	}

	// Refill within capacity: Reset+Add must not grow the backing array.
	allocs := testing.AllocsPerRun(10, func() {
		reused.Reset()
		for _, s := range samples {
			reused.Add(s)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill allocates %.1f per run, want 0", allocs)
	}

	// A recorder widened by a 5s sample before Reset refills without
	// allocating too, and still matches the fresh one.
	reused.Add(5 * sim.Second)
	allocs = testing.AllocsPerRun(10, func() {
		reused.Reset()
		for _, s := range samples {
			reused.Add(s)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill of a widened recorder allocates %.1f per run, want 0", allocs)
	}
	if got, err = json.Marshal(reused); err != nil || !bytes.Equal(want, got) {
		t.Fatalf("reused widened histogram diverged from a fresh one (%v)", err)
	}
	if g, w := reused.Summarize(), wantSum; g != w {
		t.Fatalf("summary diverged after widened reuse: %+v vs %+v", g, w)
	}
}
