// Package report renders experiment results as aligned ASCII tables and
// simple text plots, so the harness binaries can print paper-shaped
// output without external dependencies.
package report

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends one row; values are formatted with %v (floats with %.3g
// via Cell helpers if needed).
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Sparkline renders a numeric series as a compact unicode bar chart,
// used for the time-series figures (Figs 2, 7, 9).
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	if width <= 0 || width > len(vals) {
		width = len(vals)
	}
	// Downsample by max within each bucket (peaks matter for bursts).
	bucketed := make([]float64, width)
	per := float64(len(vals)) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi > len(vals) {
			hi = len(vals)
		}
		m := 0.0
		for _, v := range vals[lo:hi] {
			if v > m {
				m = v
			}
		}
		bucketed[i] = m
	}
	max := 0.0
	for _, v := range bucketed {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range bucketed {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(blocks)-1))
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// Pct formats a ratio as a signed percentage ("-35.7%").
func Pct(ratio float64) string {
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}
