package experiments

import (
	"fmt"
	"strings"

	"nmapsim/internal/cpu"
	"nmapsim/internal/report"
)

// renderTraceFigures formats Fig-2/7/9-style traces as sparklines plus
// headline counts.
func renderTraceFigures(title string, figs []TraceFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, f := range figs {
		fmt.Fprintf(&b, "\n-- %s @ %s load, policy=%s idle=%s (%d ms window) --\n",
			f.App, f.Level, f.Policy, f.Idle, f.Ms)
		w := 100
		fmt.Fprintf(&b, "pkts/ms interrupt |%s| max=%.0f\n", report.Sparkline(f.PktIntr, w), maxOf(f.PktIntr))
		fmt.Fprintf(&b, "pkts/ms polling   |%s| max=%.0f\n", report.Sparkline(f.PktPoll, w), maxOf(f.PktPoll))
		fmt.Fprintf(&b, "P-state (core 0)  |%s| avg=P%.1f\n", report.Sparkline(f.PState, w), meanOf(f.PState))
		fmt.Fprintf(&b, "ksoftirqd wakes   |%s| total=%.0f\n", report.Sparkline(f.KsWakes, w), sumOf(f.KsWakes))
		fmt.Fprintf(&b, "CC6 entries/ms    |%s| total=%.0f\n", report.Sparkline(f.CC6, w), sumOf(f.CC6))
		rt := f.reactionTimes(5)
		if rt.Bursts > 0 {
			fmt.Fprintf(&b, "boost reaction: %d/%d bursts reached P0, mean %.1fms, max %.1fms after burst start\n",
				rt.Boosted, rt.Bursts, rt.MeanMs, rt.MaxMs)
		}
		fmt.Fprintf(&b, "run: %v\n", f.Result)
	}
	return b.String()
}

// renderLatencyFigures formats Fig-3/4/10/11-style results.
func renderLatencyFigures(title string, figs []LatencyFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	t := report.NewTable("", "app", "policy", "p50", "p99", "SLO", "within-SLO", "violated")
	for _, f := range figs {
		t.Row(f.App, f.Policy,
			fmt.Sprintf("%.3fms", f.Result.Summary.P50.Millis()),
			fmt.Sprintf("%.3fms", f.Result.Summary.P99.Millis()),
			fmt.Sprintf("%.0fms", f.SLO.Millis()),
			fmt.Sprintf("%.2f%%", f.FracUnder*100),
			fmt.Sprint(f.Result.Violated))
	}
	b.WriteString(t.String())
	for _, f := range figs {
		fmt.Fprintf(&b, "\nCDF %s/%s: ", f.App, f.Policy)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			fmt.Fprintf(&b, "P%g=%.3fms ", q*100, f.Result.Hist.P(q).Millis())
		}
		lat := f.Scatter
		fmt.Fprintf(&b, "\nlatency-over-time (0.5s, ms) |%s|\n", report.Sparkline(lat.Vals, 100))
	}
	return b.String()
}

// renderTable1 formats Table 1 next to the paper's numbers.
func renderTable1(title string, rows []cpu.ReTransitionRow) string {
	t := report.NewTable("== "+title+" ==",
		"processor", "transition", "mean(µs)", "stdev(µs)", "paper mean", "paper stdev")
	for _, r := range rows {
		spec := paperTable1[r.Processor+"/"+r.Transition.String()]
		t.Row(r.Processor, r.Transition.String(),
			fmt.Sprintf("%.1f", r.Sample.MeanUs),
			fmt.Sprintf("%.1f", r.Sample.StdevUs),
			spec[0], spec[1])
	}
	return t.String()
}

// renderTable2 formats Table 2 next to the paper's numbers.
func renderTable2(title string, rows []cpu.WakeupRow) string {
	t := report.NewTable("== "+title+" ==",
		"processor", "transition", "mean(µs)", "stdev(µs)", "paper mean", "paper stdev")
	for _, r := range rows {
		spec := paperTable2[r.Processor+"/"+r.Transition]
		t.Row(r.Processor, r.Transition,
			fmt.Sprintf("%.2f", r.Sample.MeanUs),
			fmt.Sprintf("%.2f", r.Sample.StdevUs),
			spec[0], spec[1])
	}
	return t.String()
}

// paperTable1 and paperTable2 record the published numbers for the
// side-by-side comparison columns.
var paperTable1 = map[string][2]string{
	"Intel i7-6700/Pmax->Pmax-1":        {"21.0", "2.2"},
	"Intel i7-6700/Pmax-1->Pmax":        {"34.6", "2.2"},
	"Intel i7-6700/Pmax->Pmin":          {"27.2", "5.5"},
	"Intel i7-6700/Pmin->Pmax":          {"45.1", "6.5"},
	"Intel i7-6700/Pmin+1->Pmin":        {"25.3", "1.4"},
	"Intel i7-6700/Pmin->Pmin+1":        {"35.8", "2.2"},
	"Intel i7-7700/Pmax->Pmax-1":        {"21.7", "3.8"},
	"Intel i7-7700/Pmax-1->Pmax":        {"31.3", "2.1"},
	"Intel i7-7700/Pmax->Pmin":          {"25.9", "3.1"},
	"Intel i7-7700/Pmin->Pmax":          {"50.7", "6.6"},
	"Intel i7-7700/Pmin+1->Pmin":        {"26.3", "2.9"},
	"Intel i7-7700/Pmin->Pmin+1":        {"33.8", "2.3"},
	"Intel Xeon E5-2620v4/Pmax->Pmax-1": {"516.1", "3.4"},
	"Intel Xeon E5-2620v4/Pmax-1->Pmax": {"516.2", "3.5"},
	"Intel Xeon E5-2620v4/Pmax->Pmin":   {"520.9", "5.6"},
	"Intel Xeon E5-2620v4/Pmin->Pmax":   {"520.3", "5.9"},
	"Intel Xeon E5-2620v4/Pmin+1->Pmin": {"517.2", "4.3"},
	"Intel Xeon E5-2620v4/Pmin->Pmin+1": {"517.2", "4.2"},
	"Intel Xeon Gold 6134/Pmax->Pmax-1": {"525.7", "5.7"},
	"Intel Xeon Gold 6134/Pmax-1->Pmax": {"525.6", "5.7"},
	"Intel Xeon Gold 6134/Pmax->Pmin":   {"528.4", "7.0"},
	"Intel Xeon Gold 6134/Pmin->Pmax":   {"527.3", "7.1"},
	"Intel Xeon Gold 6134/Pmin+1->Pmin": {"526.3", "6.4"},
	"Intel Xeon Gold 6134/Pmin->Pmin+1": {"526.9", "6.8"},
}

var paperTable2 = map[string][2]string{
	"Intel i7-6700/CC6->CC0":        {"27.70", "3.00"},
	"Intel i7-6700/CC1->CC0":        {"0.35", "0.48"},
	"Intel i7-7700/CC6->CC0":        {"27.56", "4.15"},
	"Intel i7-7700/CC1->CC0":        {"0.40", "0.49"},
	"Intel Xeon E5-2620v4/CC6->CC0": {"27.25", "4.77"},
	"Intel Xeon E5-2620v4/CC1->CC0": {"0.50", "0.50"},
	"Intel Xeon Gold 6134/CC6->CC0": {"27.43", "4.05"},
	"Intel Xeon Gold 6134/CC1->CC0": {"0.56", "0.50"},
}

// renderMatrix formats Figs 12-15 with paper-style normalisations:
// energy relative to the performance governor's.
func renderMatrix(title string, cells []MatrixCell) string {
	const energyBase = "performance"
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	// Index energy baselines: (app, level, idle) -> baseline energy.
	base := map[string]float64{}
	for _, c := range cells {
		if c.Policy == energyBase {
			base[c.App+"/"+c.Level.String()+"/"+c.Idle] = c.Result.EnergyJ
		}
	}
	t := report.NewTable("", "app", "load", "policy", "idle",
		"p99", "p99/SLO", "violated", "energy(J)", "vs "+energyBase)
	for _, c := range cells {
		rel := "n/a"
		if e, ok := base[c.App+"/"+c.Level.String()+"/"+c.Idle]; ok && e > 0 {
			rel = report.Pct(c.Result.EnergyJ / e)
		}
		t.Row(c.App, c.Level.String(), c.Policy, c.Idle,
			fmt.Sprintf("%.3fms", c.Result.Summary.P99.Millis()),
			fmt.Sprintf("%.2f", float64(c.Result.Summary.P99)/float64(c.Result.SLO)),
			fmt.Sprint(c.Result.Violated),
			fmt.Sprintf("%.1f", c.Result.EnergyJ),
			rel)
	}
	b.WriteString(t.String())
	return b.String()
}

// renderFig8 formats the latency-load curve and the energy comparison,
// normalised to menu as in the paper.
func renderFig8(title string, points []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	menu := map[float64]float64{}
	for _, p := range points {
		if p.Idle == "menu" {
			menu[p.RPS] = p.EnergyJ
		}
	}
	t := report.NewTable("", "idle", "RPS", "p99", "energy(J)", "vs menu")
	for _, p := range points {
		rel := "n/a"
		if e := menu[p.RPS]; e > 0 {
			rel = report.Pct(p.EnergyJ / e)
		}
		t.Row(p.Idle, fmt.Sprintf("%.0fK", p.RPS/1000),
			fmt.Sprintf("%.3fms", p.P99.Millis()),
			fmt.Sprintf("%.1f", p.EnergyJ), rel)
	}
	b.WriteString(t.String())
	return b.String()
}

// renderFig16 formats the switching-load comparison.
func renderFig16(title string, results []Fig16Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, r := range results {
		fmt.Fprintf(&b, "\n-- %s --\n", r.Policy)
		// Plot clock speed (Pmin-p) rather than the index, so boosts
		// show as peaks and survive max-downsampling.
		speed := make([]float64, len(r.PState))
		for i, p := range r.PState {
			speed[i] = 15 - p
		}
		fmt.Fprintf(&b, "speed (core 0)   |%s|\n", report.Sparkline(speed, 100))
		fmt.Fprintf(&b, "latency (ms)     |%s|\n", report.Sparkline(r.Scatter.Vals, 100))
		fmt.Fprintf(&b, "requests over SLO: %.2f%%  (paper: NMAP 0.18%%, Parties 26.62%%)\n",
			r.FracOverSLO*100)
		fmt.Fprintf(&b, "run: %v\n", r.Result)
	}
	return b.String()
}

// renderAblation formats an ablation table.
func renderAblation(title string, cells []AblationCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	t := report.NewTable("", "variant", "p99", "violated", "energy(J)", "writes attempted", "writes reflected")
	for _, c := range cells {
		att := "-"
		if c.Attempts > 0 {
			att = fmt.Sprint(c.Attempts)
		}
		t.Row(c.Name, fmt.Sprintf("%.3fms", c.P99.Millis()),
			fmt.Sprint(c.Violated), fmt.Sprintf("%.1f", c.EnergyJ),
			att, fmt.Sprint(c.Transitions))
	}
	b.WriteString(t.String())
	return b.String()
}

// renderMicroSLO formats the µs-SLO ablation.
func renderMicroSLO(title string, cells []MicroSLOCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-14s %-9s %10s %9s %10s\n", "policy", "idle", "p99(µs)", "violated", "energy(J)")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-14s %-9s %10.1f %9v %10.1f\n",
			c.Policy, c.Idle, c.P99.Micros(), c.Violated, c.EnergyJ)
	}
	return b.String()
}

// writeTimeline appends a resilience or fleet timeline table; count
// and offline head its ledger and offline-population columns.
func writeTimeline(b *strings.Builder, title, count, offline string, buckets []TimelineBucket) {
	t := report.NewTable(title, "t(ms)", "done", "p99(ms)", count, offline)
	for _, bk := range buckets {
		t.Row(fmt.Sprint(bk.FromMs),
			fmt.Sprint(bk.Done),
			fmt.Sprintf("%.3f", bk.P99.Millis()),
			fmt.Sprint(bk.Count),
			fmt.Sprint(bk.Offline))
	}
	b.WriteString(t.String())
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sumOf(v) / float64(len(v))
}
