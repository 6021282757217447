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

// TestStreamingHistPool pins the satellite contract: a pooled streaming
// recorder is byte-identical to a fresh one after reuse, and the
// Get→record→Put cycle is allocation-free once the pool is warm.
func TestStreamingHistPool(t *testing.T) {
	samples := sampleStream(8192)
	fresh := NewStreamingHist()
	fill(fresh, samples)
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewStreamingHistPool()
	dirty := pool.Get()
	fill(dirty, sampleStream(500))
	pool.Put(dirty)

	reused := pool.Get()
	if reused.N() != 0 {
		t.Fatalf("pool handed out a non-empty recorder (n=%d)", reused.N())
	}
	fill(reused, samples)
	got, err := json.Marshal(reused)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("pooled streaming histogram diverged from a fresh one")
	}
	if fresh.P(0.99) != reused.P(0.99) || fresh.Mean() != reused.Mean() || fresh.Max() != reused.Max() {
		t.Fatal("pooled streaming histogram answers different queries")
	}
	pool.Put(reused)

	allocs := testing.AllocsPerRun(10, func() {
		h := pool.Get()
		for _, s := range samples {
			h.Add(s)
		}
		pool.Put(h)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/record/Put cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestStreamingHistPoolRejectsExact: an exact-mode recorder must never
// enter the pool (its footprint is run-sized, not bounded).
func TestStreamingHistPoolRejectsExact(t *testing.T) {
	pool := NewStreamingHistPool()
	exact := NewHist(16)
	exact.Add(5)
	pool.Put(exact) // ignored
	pool.Put(nil)   // ignored
	h := pool.Get()
	if !h.Streaming() {
		t.Fatal("pool handed back an exact-mode histogram")
	}
}
