package experiments

import (
	"context"

	"nmapsim/internal/cpu"
)

// Figure is one entry of the evaluation catalog: a table, a figure, a
// pair of figures drawn from one run, or an ablation.
type Figure struct {
	// Names and Descs are the entry's catalog lines, one per name; the
	// names of figures drawn from one run (fig3 and fig4, …) share the
	// entry and so the run.
	Names, Descs []string
	// Title heads the rendered text.
	Title string
	// Cancels marks a run that honours its context: cancelling it
	// renders what is in hand and returns the context's error. Every
	// other run ignores its context.
	Cancels bool
	// Fleet names the fleet-shape fields of FigureRun the run reads:
	// "nodes", "route" and "hedge", as nmapsim's flags for them are named.
	Fleet []string
	run   func(ctx context.Context, r FigureRun, title string) (string, error)
}

// FigureRun is what a catalog entry runs under: the harness, the
// quality, and the fleet shape the fleet figures read.
type FigureRun struct {
	Harness *Harness
	Quality Quality
	Nodes   int
	Route   string
	Hedge   bool
}

// Run runs the entry under r and returns its rendered text. A failed run
// returns no text, except a cancelled one that has arms in hand.
func (f Figure) Run(ctx context.Context, r FigureRun) (string, error) {
	return f.run(ctx, r, f.Title)
}

// Figures returns the evaluation catalog, in the order nmapsim lists and
// runs it. It is a function rather than a variable so that a binary
// that never asks for the catalog does not link every figure's run and
// renderer.
func Figures() []Figure {
	return []Figure{
		{Names: []string{"table1"}, Descs: []string{"re-transition latency, 4 CPUs x 6 transitions (10,000 reps)"},
			Title: "Table 1: re-transition latency", run: show(table1, renderTable1)},
		{Names: []string{"table2"}, Descs: []string{"C-state wake-up latency, 4 CPUs x 2 states (100 reps)"},
			Title: "Table 2: wake-up latency", run: show(table2, renderTable2)},
		{Names: []string{"fig2"}, Descs: []string{"NAPI mode split + ondemand P-state trace at high load"},
			Title: "Fig 2: ondemand governor, high load", run: show((*Harness).fig2, renderTraceFigures)},
		{Names: []string{"fig3", "fig4"},
			Descs: []string{"per-request latency over 0.5s, ondemand vs performance", "response-time CDFs, ondemand vs performance"},
			Title: "Figs 3+4: ondemand vs performance, high load", run: show((*Harness).fig3And4, renderLatencyFigures)},
		{Names: []string{"fig7"}, Descs: []string{"CC6 entries and packet split under menu (low vs high load)"},
			Title: "Fig 7: menu governor sleep behaviour (performance governor)", run: show((*Harness).fig7, renderTraceFigures)},
		{Names: []string{"fig8"}, Descs: []string{"latency-load curve + energy for menu/disable/c6only"},
			Title: "Fig 8: latency-load curve and energy by sleep policy (performance governor)", run: show((*Harness).fig8, renderFig8)},
		{Names: []string{"fig9"}, Descs: []string{"NAPI mode split + NMAP P-state trace at high load"},
			Title: "Fig 9: NMAP, high load", run: show((*Harness).fig9, renderTraceFigures)},
		{Names: []string{"fig10", "fig11"}, Descs: []string{"per-request latency over 0.5s under NMAP", "response-time CDFs under NMAP"},
			Title: "Figs 10+11: NMAP, high load", run: show((*Harness).fig10And11, renderLatencyFigures)},
		{Names: []string{"fig12", "fig13"},
			Descs: []string{"P99 matrix: 5 V/F policies x 3 sleep policies x 3 loads x 2 apps", "energy matrix for the same configurations"},
			Title: "Figs 12+13: P99 and energy across governors and sleep policies", run: show((*Harness).fig12And13, renderMatrix)},
		{Names: []string{"fig14", "fig15"},
			Descs: []string{"P99 vs state-of-the-art (NCAP, NCAP-menu)", "energy vs state-of-the-art (NCAP, NCAP-menu)"},
			Title: "Figs 14+15: comparison with state-of-the-art (energy vs performance)", run: show((*Harness).fig14And15, renderMatrix)},
		{Names: []string{"fig16"}, Descs: []string{"randomly switching load: NMAP vs Parties"},
			Title: "Fig 16: randomly switching load, NMAP vs Parties", run: show((*Harness).fig16, renderFig16)},
		{Names: []string{"fig-resilience"}, Descs: []string{"P99 + shed rate through a core crash and recovery"},
			Title: "Fig resilience", run: show((*Harness).figResilience, renderResilience)},
		{Names: []string{"fig-cluster"}, Descs: []string{"fleet P99 + energy + offline-node timeline through a node crash (-nodes, -route, -hedge)"},
			Title: "Fig cluster", Cancels: true, Fleet: []string{"nodes", "route", "hedge"}, run: func(ctx context.Context, r FigureRun, title string) (string, error) {
				fig, err := r.Harness.figClusterCtx(ctx, r.Quality, r.Nodes, r.Route, r.Hedge)
				return renderCluster(title, fig), err
			}},
		{Names: []string{"fig-grayfail"}, Descs: []string{"gray link faults: naive vs flap-damped vs hedged front end (-nodes, -route)"},
			Title: "Fig grayfail", Cancels: true, Fleet: []string{"nodes", "route"}, run: func(ctx context.Context, r FigureRun, title string) (string, error) {
				fig, err := r.Harness.figGrayFailCtx(ctx, r.Quality, r.Nodes, r.Route)
				return renderGrayFail(title, fig), err
			}},
		{Names: []string{"ablation-perrequest"}, Descs: []string{"per-request DVFS vs NMAP under re-transition latency (5.1)"},
			Title: "Ablation: per-request DVFS pays the re-transition latency", run: show((*Harness).ablationPerRequest, renderAblation)},
		{Names: []string{"ablation-thresholds"}, Descs: []string{"NI_TH sensitivity sweep"},
			Title: "Ablation: NI_TH sensitivity (memcached, high load)", run: show((*Harness).ablationThresholds, renderAblation)},
		{Names: []string{"ablation-chipwide"}, Descs: []string{"per-core vs chip-wide NMAP"},
			Title: "Ablation: per-core vs chip-wide NMAP (memcached, medium load)", run: show((*Harness).ablationChipWide, renderAblation)},
		{Names: []string{"ablation-extensions"}, Descs: []string{"future-work extensions: online tuning, sleep integration"},
			Title: "Ablation: NMAP future-work extensions (memcached, high load)", run: show((*Harness).ablationExtensions, renderAblation)},
		{Names: []string{"ablation-rss"}, Descs: []string{"per-core vs chip-wide NMAP under lumpy RSS"},
			Title: "Ablation: RSS imbalance and per-core DVFS (memcached, medium load)", run: show((*Harness).ablationRSS, renderAblation)},
		{Names: []string{"ablation-itr"}, Descs: []string{"NIC interrupt-throttle period sensitivity"},
			Title: "Ablation: ITR period sensitivity (memcached, high load, NMAP)", run: show((*Harness).ablationITR, renderAblation)},
		{Names: []string{"ablation-microslo"}, Descs: []string{"sleep states vs a 90µs SLO (the §8 outlook)"},
			Title: "Ablation: sleep states against a 90µs SLO (µs-scale service)", run: show((*Harness).ablationMicroSLO, renderMicroSLO)},
	}
}

// show pairs a run that ignores its context with its renderer: the
// text renders only when the run succeeded.
func show[T any](run func(*Harness, Quality) (T, error), render func(string, T) string) func(context.Context, FigureRun, string) (string, error) {
	return func(_ context.Context, r FigureRun, title string) (string, error) {
		v, err := run(r.Harness, r.Quality)
		if err != nil {
			return "", err
		}
		return render(title, v), nil
	}
}

// table1 measures Table 1 (re-transition latency, four processors × six
// transitions) at the paper's 10,000 repetitions, or 500 in a quick run.
func table1(_ *Harness, q Quality) ([]cpu.ReTransitionRow, error) {
	reps := 10_000
	if q == Quick {
		reps = 500
	}
	return cpu.MeasureTable1(cpu.Models, reps, defaultSeed), nil
}

// table2 measures Table 2 (wake-up latency, four processors × two
// C-states) at the paper's 100 repetitions.
func table2(*Harness, Quality) ([]cpu.WakeupRow, error) {
	return cpu.MeasureTable2(cpu.Models, 100, defaultSeed), nil
}
