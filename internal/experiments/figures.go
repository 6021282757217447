package experiments

import (
	"nmapsim/internal/baselines"
	"nmapsim/internal/cpu"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Quality scales experiment durations: Full reproduces the paper's
// windows; Quick shrinks them for benchmarks and smoke tests.
type Quality int

// The two harness qualities.
const (
	Full Quality = iota
	Quick
)

func (q Quality) warmup() sim.Duration {
	if q == Quick {
		return 100 * sim.Millisecond
	}
	return 200 * sim.Millisecond
}

func (q Quality) duration() sim.Duration {
	if q == Quick {
		return 300 * sim.Millisecond
	}
	return sim.Duration(sim.Second)
}

const defaultSeed = 42

// ---------------------------------------------------------------------
// Trace figures: Fig 2 (ondemand), Fig 7 (sleep states), Fig 9 (NMAP).
// ---------------------------------------------------------------------

// TraceFigure is the per-millisecond view a trace figure plots.
type TraceFigure struct {
	App     string
	Policy  string
	Idle    string
	Level   workload.Level
	Ms      int // number of 1ms bins
	PktIntr []float64
	PktPoll []float64
	KsWakes []float64
	CC6     []float64
	PState  []float64
	// Result carries the run's headline numbers.
	Result server.Result
}

// tracedSpec is one traced configuration, run for dur after warmup.
func tracedSpec(q Quality, dur sim.Duration, profile *workload.Profile, level workload.Level, policy, idle string) Spec {
	return Spec{
		Policy: policy,
		Idle:   idle,
		Cfg: server.Config{
			Seed:     defaultSeed,
			Profile:  profile,
			Level:    level,
			Warmup:   q.warmup(),
			Duration: dur,
		},
	}
}

// runTraced runs each spec as one cell on the worker pool with a Trace
// attached to the built server, and reads each run into its row, in
// input order.
func runTraced[T any](h *Harness, specs []Spec, read func(spec Spec, tr *Trace, res server.Result) T) ([]T, error) {
	cells := make([]cell, len(specs))
	trs := make([]*Trace, len(specs))
	for i, spec := range specs {
		cells[i] = cell{spec: spec, observe: func(s *server.Server) { trs[i] = NewTrace(s, 0) }}
	}
	return runRows(h, cells, func(i int, c CellResult) T { return read(specs[i], trs[i], c.Result) })
}

// RunTrace runs one traced configuration and samples the window
// [warmup, warmup+window).
func (h *Harness) RunTrace(profile *workload.Profile, level workload.Level, policy, idle string, window sim.Duration, q Quality) (TraceFigure, error) {
	figs, err := h.traceSet(q, window, tracedSpec(q, window, profile, level, policy, idle))
	if err != nil {
		return TraceFigure{}, err
	}
	return figs[0], nil
}

// traceSet runs a list of trace configurations, each sampling the
// window [warmup, warmup+window).
func (h *Harness) traceSet(q Quality, window sim.Duration, specs ...Spec) ([]TraceFigure, error) {
	from := int(q.warmup() / sim.Millisecond)
	n := int(window / sim.Millisecond)
	return runTraced(h, specs, func(spec Spec, tr *Trace, res server.Result) TraceFigure {
		slice := func(c *stats.Counter) []float64 {
			out := make([]float64, n)
			for i := 0; i < n; i++ {
				out[i] = c.Bin(from + i)
			}
			return out
		}
		ps := tr.PStateSeries(sim.Time(q.warmup() + window))
		return TraceFigure{
			App:     spec.Cfg.Profile.Name,
			Policy:  spec.Policy,
			Idle:    spec.Idle,
			Level:   spec.Cfg.Level,
			Ms:      n,
			PktIntr: slice(tr.PktIntr),
			PktPoll: slice(tr.PktPoll),
			KsWakes: slice(tr.KsWakes),
			CC6:     slice(tr.CC6Entry),
			PState:  ps[from:],
			Result:  res,
		}
	})
}

// traceWindow is the span the trace figures plot.
const traceWindow = 500 * sim.Millisecond

// Fig2 reproduces Fig 2: ksoftirqd wake-ups, the ondemand P-state, and
// the interrupt/polling packet split at high load for both apps.
func (h *Harness) Fig2(q Quality) ([]TraceFigure, error) {
	return h.traceSet(q, traceWindow,
		tracedSpec(q, traceWindow, workload.Memcached(), workload.High, "ondemand", "menu"),
		tracedSpec(q, traceWindow, workload.Nginx(), workload.High, "ondemand", "menu"))
}

// Fig9 reproduces Fig 9: the same view under NMAP.
func (h *Harness) Fig9(q Quality) ([]TraceFigure, error) {
	return h.traceSet(q, traceWindow,
		tracedSpec(q, traceWindow, workload.Memcached(), workload.High, "nmap", "menu"),
		tracedSpec(q, traceWindow, workload.Nginx(), workload.High, "nmap", "menu"))
}

// Fig7 reproduces Fig 7: CC6 entries and the packet split under the
// menu governor at low and high memcached load (performance governor).
func (h *Harness) Fig7(q Quality) ([]TraceFigure, error) {
	return h.traceSet(q, traceWindow,
		tracedSpec(q, traceWindow, workload.Memcached(), workload.Low, "performance", "menu"),
		tracedSpec(q, traceWindow, workload.Memcached(), workload.High, "performance", "menu"))
}

// ---------------------------------------------------------------------
// Latency scatter and CDF figures: Figs 3, 4, 10, 11.
// ---------------------------------------------------------------------

// LatencyFigure carries a 0.5s per-request latency scatter and the full
// response-time CDF for one configuration.
type LatencyFigure struct {
	App       string
	Policy    string
	Level     workload.Level
	SLO       sim.Duration
	Scatter   *stats.Scatter // latency (ms) vs completion time, 0.5s window
	CDF       []stats.CDFPoint
	FracUnder float64 // fraction of responses within the SLO
	Result    server.Result
}

// latencySet runs each policy at high load on both applications and
// extracts the Fig-3-style scatter and Fig-4-style CDF.
func (h *Harness) latencySet(q Quality, policies ...string) ([]LatencyFigure, error) {
	var specs []Spec
	for _, prof := range workload.Profiles() {
		for _, pol := range policies {
			specs = append(specs, tracedSpec(q, q.duration(), prof, workload.High, pol, "menu"))
		}
	}
	from := sim.Time(q.warmup())
	return runTraced(h, specs, func(spec Spec, tr *Trace, res server.Result) LatencyFigure {
		slo := spec.Cfg.Profile.SLO
		return LatencyFigure{
			App:       spec.Cfg.Profile.Name,
			Policy:    spec.Policy,
			Level:     spec.Cfg.Level,
			SLO:       slo,
			Scatter:   tr.Lat.Window(from, from+sim.Time(500*sim.Millisecond)),
			CDF:       res.Hist.CDF(101),
			FracUnder: res.Hist.FracLE(slo),
			Result:    res,
		}
	})
}

// Fig3And4 reproduces Figs 3 and 4: per-request latency and CDFs for
// ondemand vs performance at high load on both applications.
func (h *Harness) Fig3And4(q Quality) ([]LatencyFigure, error) {
	return h.latencySet(q, "ondemand", "performance")
}

// Fig10And11 reproduces Figs 10 and 11: the same view under NMAP.
func (h *Harness) Fig10And11(q Quality) ([]LatencyFigure, error) {
	return h.latencySet(q, "nmap")
}

// ---------------------------------------------------------------------
// Tables 1 and 2.
// ---------------------------------------------------------------------

// Table1 reproduces Table 1 (re-transition latency, four processors ×
// six transitions). reps defaults to the paper's 10,000 when zero.
func Table1(reps int) []cpu.ReTransitionRow {
	if reps == 0 {
		reps = 10_000
	}
	return cpu.MeasureTable1(cpu.Models, reps, defaultSeed)
}

// Table2 reproduces Table 2 (wake-up latency, four processors × two
// C-states). reps defaults to the paper's 100 when zero.
func Table2(reps int) []cpu.WakeupRow {
	if reps == 0 {
		reps = 100
	}
	return cpu.MeasureTable2(cpu.Models, reps, defaultSeed)
}

// ---------------------------------------------------------------------
// Fig 8: latency-load curve and energy across sleep-state policies.
// ---------------------------------------------------------------------

// Fig8Point is one (load, idle-policy) cell of Fig 8.
type Fig8Point struct {
	RPS     float64
	Idle    string
	P99     sim.Duration
	EnergyJ float64
}

// Fig8 sweeps the memcached load under the performance governor for the
// three sleep-state policies. Energy is reported raw; the caller
// normalises to menu as the paper does. Cells run on the harness worker
// pool in deterministic order.
func (h *Harness) Fig8(q Quality) ([]Fig8Point, error) {
	prof := workload.Memcached()
	loads := []float64{30_000, 150_000, 290_000, 450_000, 600_000, 750_000}
	if q == Quick {
		loads = []float64{30_000, 290_000, 750_000}
	}
	var specs []Spec
	for _, idle := range []string{"menu", "disable", "c6only"} {
		for _, rps := range loads {
			specs = append(specs, Spec{
				Policy: "performance",
				Idle:   idle,
				Cfg: server.Config{
					Seed:     defaultSeed,
					Profile:  prof,
					RPS:      rps,
					Warmup:   q.warmup(),
					Duration: q.duration(),
				},
			})
		}
	}
	results, err := h.RunSpecs(specs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Point, len(specs))
	for i, res := range results {
		out[i] = Fig8Point{RPS: specs[i].Cfg.RPS, Idle: specs[i].Idle,
			P99: res.Summary.P99, EnergyJ: res.EnergyJ}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figs 12-15: the evaluation matrices.
// ---------------------------------------------------------------------

// MatrixCell is one (app, load, policy, idle) result.
type MatrixCell struct {
	App    string
	Level  workload.Level
	Policy string
	Idle   string
	Result server.Result
}

// RunMatrix runs the cross product of the given policies, idle policies
// and load levels on both applications. Cells fan out over the harness
// worker pool; the returned slice is in the serial cross-product order
// and is byte-for-byte independent of the fan-out.
func (h *Harness) RunMatrix(policies, idles []string, q Quality) ([]MatrixCell, error) {
	var specs []Spec
	var meta []MatrixCell
	for _, prof := range workload.Profiles() {
		for _, lvl := range workload.Levels {
			for _, pol := range policies {
				for _, idle := range idles {
					specs = append(specs, Spec{
						Policy: pol,
						Idle:   idle,
						Cfg: server.Config{
							Seed:     defaultSeed,
							Profile:  prof,
							Level:    lvl,
							Warmup:   q.warmup(),
							Duration: q.duration(),
						},
					})
					meta = append(meta, MatrixCell{
						App: prof.Name, Level: lvl, Policy: pol, Idle: idle,
					})
				}
			}
		}
	}
	results, err := h.RunSpecs(specs)
	if err != nil {
		return nil, err
	}
	for i := range meta {
		meta[i].Result = results[i]
	}
	return meta, nil
}

// Fig12And13 reproduces the Fig 12 (P99) and Fig 13 (energy) matrix:
// five V/F policies × three sleep policies × three loads × two apps.
func (h *Harness) Fig12And13(q Quality) ([]MatrixCell, error) {
	idles := []string{"menu", "disable", "c6only"}
	if q == Quick {
		idles = []string{"menu"}
	}
	return h.RunMatrix(
		[]string{"intel_powersave", "ondemand", "performance", "nmap-simpl", "nmap"},
		idles, q)
}

// Fig14And15 reproduces the Fig 14 (P99, SLO-normalised) and Fig 15
// (energy) comparison with the state-of-the-art baselines.
func (h *Harness) Fig14And15(q Quality) ([]MatrixCell, error) {
	return h.RunMatrix(
		[]string{"ncap-menu", "ncap", "nmap-simpl", "nmap", "performance"},
		[]string{"menu"}, q)
}

// ---------------------------------------------------------------------
// Fig 16: randomly switching load, NMAP vs Parties.
// ---------------------------------------------------------------------

// Fig16Result is one policy's behaviour under the switching load.
type Fig16Result struct {
	Policy      string
	FracOverSLO float64
	PState      []float64      // tracked core, 1ms samples
	Scatter     *stats.Scatter // latency (ms) vs time
	Result      server.Result
}

// Fig16 runs memcached with the load switching uniformly among the
// three levels every 500ms for 5 seconds, comparing NMAP and Parties.
func (h *Harness) Fig16(q Quality) ([]Fig16Result, error) {
	prof := workload.Memcached()
	dur := 5 * sim.Duration(sim.Second)
	if q == Quick {
		dur = 1500 * sim.Millisecond
	}
	var specs []Spec
	for _, pol := range []string{"nmap", "parties"} {
		specs = append(specs, Spec{
			Policy: pol,
			Idle:   "menu",
			Cfg: server.Config{
				Seed:           defaultSeed,
				Profile:        prof,
				VariableLevels: []float64{prof.LowRPS, prof.MediumRPS, prof.HighRPS},
				SwitchPeriod:   500 * sim.Millisecond,
				Warmup:         q.warmup(),
				Duration:       dur,
			},
		})
	}
	from := sim.Time(q.warmup())
	return runTraced(h, specs, func(spec Spec, tr *Trace, res server.Result) Fig16Result {
		ps := tr.PStateSeries(from + sim.Time(dur))
		return Fig16Result{
			Policy:      spec.Policy,
			FracOverSLO: res.FracOverSLO,
			PState:      ps[int(from/sim.Time(sim.Millisecond)):],
			Scatter:     tr.Lat.Window(from, from+sim.Time(dur)),
			Result:      res,
		}
	})
}

// ---------------------------------------------------------------------
// Ablations beyond the paper.
// ---------------------------------------------------------------------

// AblationCell is one ablation run.
type AblationCell struct {
	Name    string
	P99     sim.Duration
	EnergyJ float64
	// Attempts counts V/F register writes issued by the policy (0 when
	// the policy does not expose it); Transitions counts the writes
	// that actually took effect. On server parts the gap is the §5.1
	// "transitions not reflected" effect.
	Attempts    int64
	Transitions int64
	Violated    bool
}

// ablate runs one ablation's cells on the worker pool and names each
// row.
func (h *Harness) ablate(names []string, cells []cell) ([]AblationCell, error) {
	return runRows(h, cells, func(i int, c CellResult) AblationCell {
		res := c.Result
		return AblationCell{
			Name: names[i], P99: res.Summary.P99, EnergyJ: res.EnergyJ,
			Transitions: res.Transitions, Violated: res.Violated,
		}
	})
}

// AblationPerRequest contrasts NMAP with a per-request DVFS policy on
// hardware with realistic re-transition latency (§5.1's argument: the
// per-request policy issues orders of magnitude more V/F writes than
// ever take effect, so its fine-grained decisions are simply not
// reflected by the processor).
func (h *Harness) AblationPerRequest(q Quality) ([]AblationCell, error) {
	return h.perRequestArms(server.Config{
		Seed: defaultSeed, Profile: workload.Memcached(), Level: workload.High,
		Warmup: q.warmup(), Duration: q.duration(),
	})
}

// perRequestArms runs the NMAP, ondemand and per-request DVFS arms of
// AblationPerRequest on cfg.
func (h *Harness) perRequestArms(cfg server.Config) ([]AblationCell, error) {
	names := []string{"nmap", "ondemand", "perrequest"}
	cells := make([]cell, len(names))
	for i, pol := range names {
		cells[i] = cell{spec: Spec{Policy: pol, Idle: "menu", Cfg: cfg}}
	}
	// Keep a handle on the per-request policy's attempted-write counter.
	var pr *baselines.PerRequest
	cells[2].observe = func(s *server.Server) { pr = s.Policy().(*baselines.PerRequest) }
	out, err := h.ablate(names, cells)
	if err != nil {
		return nil, err
	}
	out[2].Attempts = pr.Requests
	return out, nil
}

// AblationThresholds sweeps NI_TH around the profiled value to show the
// detection-latency/energy trade-off.
func (h *Harness) AblationThresholds(q Quality) ([]AblationCell, error) {
	prof := workload.Memcached()
	base := ProfiledThresholds(prof, 1042)
	mults := []float64{0.25, 0.5, 1, 2, 4}
	names := make([]string, len(mults))
	specs := make([]Spec, len(mults))
	for i, mult := range mults {
		th := base
		th.NITh = base.NITh * mult
		names[i] = "NI_TH x" + ftoa(mult)
		specs[i] = Spec{
			Policy:     "nmap",
			Idle:       "menu",
			Thresholds: th,
			Cfg: server.Config{
				Seed: defaultSeed, Profile: prof, Level: workload.High,
				Warmup: q.warmup(), Duration: q.duration(),
			},
		}
	}
	return h.ablate(names, specCells(specs))
}

// AblationChipWide contrasts per-core NMAP with a chip-wide variant
// (the §6.3 argument for why NMAP beats NCAP).
func (h *Harness) AblationChipWide(q Quality) ([]AblationCell, error) {
	prof := workload.Memcached()
	var specs []Spec
	names := []string{"nmap-per-core", "nmap-chip-wide"}
	for _, chipWide := range []bool{false, true} {
		specs = append(specs, Spec{
			Policy: "nmap",
			Idle:   "menu",
			Cfg: server.Config{
				Seed: defaultSeed, Profile: prof, Level: workload.Medium,
				Warmup: q.warmup(), Duration: q.duration(),
				ForceChipWide: chipWide,
			},
		})
	}
	return h.ablate(names, specCells(specs))
}

// AblationExtensions compares stock NMAP against the two future-work
// extensions: online threshold tuning (no offline profiling) and
// sleep-state integration.
func (h *Harness) AblationExtensions(q Quality) ([]AblationCell, error) {
	prof := workload.Memcached()
	names := []string{"nmap", "nmap-online", "nmap-sleep"}
	var specs []Spec
	for _, pol := range names {
		specs = append(specs, Spec{
			Policy: pol,
			Idle:   "menu",
			Cfg: server.Config{
				Seed: defaultSeed, Profile: prof, Level: workload.High,
				Warmup: q.warmup(), Duration: q.duration(),
			},
		})
	}
	return h.ablate(names, specCells(specs))
}

// AblationRSS shows why per-core DVFS beats chip-wide when RSS is
// lumpy (§6.3): with few client connections the per-queue loads differ,
// so pulling every core to the hottest core's frequency wastes energy.
func (h *Harness) AblationRSS(q Quality) ([]AblationCell, error) {
	prof := workload.Memcached()
	var specs []Spec
	var names []string
	for _, flows := range []int{40, 12} {
		for _, chipWide := range []bool{false, true} {
			name := "per-core"
			if chipWide {
				name = "chip-wide"
			}
			if flows == 40 {
				name += "/even-rss"
			} else {
				name += "/lumpy-rss"
			}
			names = append(names, name)
			specs = append(specs, Spec{
				Policy: "nmap",
				Idle:   "menu",
				Cfg: server.Config{
					Seed: defaultSeed, Profile: prof, Level: workload.Medium,
					Flows: flows, LumpyRSS: flows != 40, ForceChipWide: chipWide,
					Warmup: q.warmup(), Duration: q.duration(),
				},
			})
		}
	}
	return h.ablate(names, specCells(specs))
}

// AblationITR sweeps the NIC interrupt-throttle period: the ITR sets
// how often the NAPI mode counters get a fresh interrupt window and how
// bursty the hardirq load is, so it bounds NMAP's detection texture.
func (h *Harness) AblationITR(q Quality) ([]AblationCell, error) {
	prof := workload.Memcached()
	var specs []Spec
	var names []string
	for _, itr := range []sim.Duration{5 * sim.Microsecond, 10 * sim.Microsecond,
		20 * sim.Microsecond, 50 * sim.Microsecond} {
		names = append(names, "ITR="+itr.String())
		specs = append(specs, Spec{
			Policy: "nmap",
			Idle:   "menu",
			Cfg: server.Config{
				Seed: defaultSeed, Profile: prof, Level: workload.High,
				ITR:    itr,
				Warmup: q.warmup(), Duration: q.duration(),
			},
		})
	}
	return h.ablate(names, specCells(specs))
}

func ftoa(f float64) string {
	switch f {
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.5"
	case 1:
		return "1"
	case 2:
		return "2"
	case 4:
		return "4"
	}
	return "?"
}
