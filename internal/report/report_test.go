package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.Row("short", "1")
	tb.Row("a-much-longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Fatal("title missing")
	}
	// The value column must start at the same offset in both data rows.
	i1 := strings.Index(lines[3], "1")
	i2 := strings.Index(lines[4], "22")
	if i1 != i2 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", i1, i2, out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8}, 9)
	if len([]rune(s)) != 9 {
		t.Fatalf("sparkline length %d, want 9", len([]rune(s)))
	}
	r := []rune(s)
	if r[0] != ' ' || r[8] != '█' {
		t.Fatalf("sparkline endpoints wrong: %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty input must render empty")
	}
}

func TestSparklineDownsamplesByMax(t *testing.T) {
	vals := make([]float64, 100)
	vals[50] = 10 // one spike must survive downsampling
	s := []rune(Sparkline(vals, 10))
	found := false
	for _, r := range s {
		if r == '█' {
			found = true
		}
	}
	if !found {
		t.Fatalf("spike lost in downsampling: %q", string(s))
	}
}

func TestPct(t *testing.T) {
	if Pct(0.643) != "-35.7%" {
		t.Fatalf("Pct(0.643) = %s", Pct(0.643))
	}
	if Pct(1.10) != "+10.0%" {
		t.Fatalf("Pct(1.10) = %s", Pct(1.10))
	}
}
