package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"nmapsim/internal/sim"
)

func TestHistPercentilesExact(t *testing.T) {
	h := NewHist(100)
	for i := 1; i <= 100; i++ {
		h.Add(sim.Duration(i))
	}
	if got := h.P(0.99); got != 99 {
		t.Fatalf("P99 = %d, want 99 (nearest rank)", got)
	}
	if got := h.P(0.50); got != 50 {
		t.Fatalf("P50 = %d, want 50", got)
	}
	if got := h.P(1.0); got != 100 {
		t.Fatalf("P100 = %d, want 100", got)
	}
	if got := h.P(0); got != 1 {
		t.Fatalf("P0 = %d, want 1", got)
	}
}

func TestHistFracLE(t *testing.T) {
	h := NewHist(10)
	for i := 1; i <= 10; i++ {
		h.Add(sim.Duration(i * 10))
	}
	if f := h.FracLE(50); f != 0.5 {
		t.Fatalf("FracLE(50) = %f, want 0.5", f)
	}
	if f := h.FracLE(5); f != 0 {
		t.Fatalf("FracLE(5) = %f, want 0", f)
	}
	if f := h.FracLE(1000); f != 1 {
		t.Fatalf("FracLE(1000) = %f, want 1", f)
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist(0)
	if h.P(0.99) != 0 || h.FracLE(10) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must answer zeros")
	}
	if h.CDF(10) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestHistAddAfterQuery(t *testing.T) {
	h := NewHist(4)
	h.Add(5)
	h.Add(1)
	_ = h.P(0.5) // forces a sort
	h.Add(3)     // must re-sort lazily
	if got := h.P(0.5); got != 3 {
		t.Fatalf("P50 after post-query add = %d, want 3", got)
	}
}

// Property: quantiles computed by Hist match a direct sorted-slice
// implementation for random sample sets.
func TestHistQuantileProperty(t *testing.T) {
	f := func(raw []uint32, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		h := NewHist(len(raw))
		vals := make([]int64, len(raw))
		for i, r := range raw {
			h.Add(sim.Duration(r))
			vals[i] = int64(r)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var want int64
		if q <= 0 {
			want = vals[0]
		} else {
			idx := int(math.Ceil(q*float64(len(vals)))) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			want = vals[idx]
		}
		return int64(h.P(q)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FracLE is a valid CDF — monotone and consistent with counts.
func TestHistCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		h := NewHist(len(raw))
		for _, r := range raw {
			h.Add(sim.Duration(r))
		}
		prev := -1.0
		for d := sim.Duration(0); d <= 65535; d += 4096 {
			fle := h.FracLE(d)
			if fle < prev || fle < 0 || fle > 1 {
				return false
			}
			prev = fle
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	s := &Scatter{}
	s.Add(10, 1.0)
	s.Add(20, 5.0)
	s.Add(30, 2.0)
	if len(s.Times) != 3 || s.Times[1] != 20 || s.Vals[1] != 5.0 {
		t.Fatalf("scatter = %+v", s)
	}
}

func TestCDFRendering(t *testing.T) {
	h := NewHist(1000)
	for i := 0; i < 1000; i++ {
		h.Add(sim.Duration(i))
	}
	pts := h.CDF(11)
	if len(pts) != 11 {
		t.Fatalf("CDF points = %d, want 11", len(pts))
	}
	if pts[0].Frac != 0 || pts[10].Frac != 1 {
		t.Fatal("CDF endpoints wrong")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Lat < pts[i-1].Lat {
			t.Fatal("CDF latencies not monotone")
		}
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHist(10)
	h.Add(1000)
	s := h.Summarize()
	if s.N != 1 {
		t.Fatalf("summary N = %d", s.N)
	}
	if s.String() == "" {
		t.Fatal("summary string empty")
	}
}
