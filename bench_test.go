package nmapsim

// One testing.B benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment at Quick quality
// (shorter measurement windows than the cmd/nmapsim harness, same code
// paths) and reports the experiment's headline quantities as custom
// metrics, so `go test -bench=. -benchmem` doubles as a smoke
// reproduction of the whole evaluation. Run `cmd/nmapsim <exp>` for the
// full-quality tables.

import (
	"testing"

	"nmapsim/internal/experiments"
	"nmapsim/internal/workload"
)

// harness runs every benchmark under the default run conditions.
var harness = &experiments.Harness{}

func BenchmarkTable1ReTransitionLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(100)
		if len(rows) != 24 {
			b.Fatalf("rows = %d, want 24", len(rows))
		}
		b.ReportMetric(rows[21].Sample.MeanUs, "gold6134-pmin-pmax-us")
	}
}

func BenchmarkTable2WakeupLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(100)
		if len(rows) != 8 {
			b.Fatalf("rows = %d, want 8", len(rows))
		}
		b.ReportMetric(rows[6].Sample.MeanUs, "gold6134-cc6-wake-us")
	}
}

func BenchmarkFig2OndemandTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig2(experiments.Quick))
		b.ReportMetric(sum(figs[0].PktPoll), "memcached-polling-pkts")
		b.ReportMetric(sum(figs[0].KsWakes), "ksoftirqd-wakes")
	}
}

func BenchmarkFig3PerRequestLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig3And4(experiments.Quick))
		b.ReportMetric(figs[0].Result.Summary.P99.Millis(), "ondemand-p99-ms")
		b.ReportMetric(figs[1].Result.Summary.P99.Millis(), "performance-p99-ms")
	}
}

func BenchmarkFig4LatencyCDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig3And4(experiments.Quick))
		b.ReportMetric(figs[0].FracUnder*100, "ondemand-within-slo-pct")
		b.ReportMetric(figs[1].FracUnder*100, "performance-within-slo-pct")
	}
}

func BenchmarkFig7SleepStateTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig7(experiments.Quick))
		b.ReportMetric(sum(figs[0].CC6), "low-load-cc6-entries")
		b.ReportMetric(sum(figs[1].CC6), "high-load-cc6-entries")
	}
}

func BenchmarkFig8SleepPolicySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := must(harness.Fig8(experiments.Quick))
		var menu, disable, c6 float64
		for _, p := range pts {
			if p.RPS != 30_000 {
				continue
			}
			switch p.Idle {
			case "menu":
				menu = p.EnergyJ
			case "disable":
				disable = p.EnergyJ
			case "c6only":
				c6 = p.EnergyJ
			}
		}
		b.ReportMetric((disable/menu-1)*100, "disable-vs-menu-pct")
		b.ReportMetric((c6/menu-1)*100, "c6only-vs-menu-pct")
	}
}

func BenchmarkFig9NMAPTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig9(experiments.Quick))
		b.ReportMetric(figs[0].Result.Summary.P99.Millis(), "memcached-p99-ms")
	}
}

func BenchmarkFig10NMAPLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig10And11(experiments.Quick))
		b.ReportMetric(figs[0].Result.Summary.P99.Millis(), "memcached-p99-ms")
	}
}

func BenchmarkFig11NMAPCDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := must(harness.Fig10And11(experiments.Quick))
		b.ReportMetric((1-figs[0].FracUnder)*100, "memcached-over-slo-pct")
		b.ReportMetric((1-figs[1].FracUnder)*100, "nginx-over-slo-pct")
	}
}

func BenchmarkFig12P99Matrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.Fig12And13(experiments.Quick))
		b.ReportMetric(pickP99(cells, "memcached", workload.High, "ondemand"), "ondemand-high-p99-ms")
		b.ReportMetric(pickP99(cells, "memcached", workload.High, "nmap"), "nmap-high-p99-ms")
	}
}

func BenchmarkFig13EnergyMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.Fig12And13(experiments.Quick))
		perf := pickEnergy(cells, "memcached", workload.Low, "performance")
		nmap := pickEnergy(cells, "memcached", workload.Low, "nmap")
		b.ReportMetric((nmap/perf-1)*100, "nmap-vs-perf-low-pct")
	}
}

func BenchmarkFig14SOTAP99(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.Fig14And15(experiments.Quick))
		b.ReportMetric(pickP99(cells, "memcached", workload.High, "ncap"), "ncap-high-p99-ms")
		b.ReportMetric(pickP99(cells, "memcached", workload.High, "nmap"), "nmap-high-p99-ms")
	}
}

func BenchmarkFig15SOTAEnergy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.Fig14And15(experiments.Quick))
		ncap := pickEnergy(cells, "memcached", workload.Medium, "ncap")
		nmap := pickEnergy(cells, "memcached", workload.Medium, "nmap")
		b.ReportMetric((nmap/ncap-1)*100, "nmap-vs-ncap-medium-pct")
	}
}

func BenchmarkFig16SwitchingLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := must(harness.Fig16(experiments.Quick))
		b.ReportMetric(res[0].FracOverSLO*100, "nmap-over-slo-pct")
		b.ReportMetric(res[1].FracOverSLO*100, "parties-over-slo-pct")
	}
}

func BenchmarkAblationPerRequestDVFS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.AblationPerRequest(experiments.Quick))
		for _, c := range cells {
			if c.Name == "perrequest" {
				b.ReportMetric(float64(c.Attempts), "writes-attempted")
				b.ReportMetric(float64(c.Transitions), "writes-reflected")
			}
		}
	}
}

func BenchmarkAblationThresholdSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.AblationThresholds(experiments.Quick))
		b.ReportMetric(cells[0].P99.Millis(), "nith-quarter-p99-ms")
		b.ReportMetric(cells[len(cells)-1].P99.Millis(), "nith-4x-p99-ms")
	}
}

func BenchmarkAblationChipWideNMAP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := must(harness.AblationChipWide(experiments.Quick))
		b.ReportMetric(cells[0].EnergyJ, "per-core-energy-j")
		b.ReportMetric(cells[1].EnergyJ, "chip-wide-energy-j")
	}
}

// BenchmarkEngineThroughput measures the raw simulator event rate that
// all experiments are built on.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Scenario{App: "memcached", Load: "low", Policy: "ondemand",
			WarmupMs: 10, DurationMs: 50}.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests == 0 {
			b.Fatal("no requests")
		}
	}
}

// must unwraps a (result, error) pair inside a benchmark body; a failed
// experiment aborts the benchmark.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func pickP99(cells []experiments.MatrixCell, app string, lvl workload.Level, pol string) float64 {
	for _, c := range cells {
		if c.App == app && c.Level == lvl && c.Policy == pol && c.Idle == "menu" {
			return c.Result.Summary.P99.Millis()
		}
	}
	return -1
}

func pickEnergy(cells []experiments.MatrixCell, app string, lvl workload.Level, pol string) float64 {
	for _, c := range cells {
		if c.App == app && c.Level == lvl && c.Policy == pol && c.Idle == "menu" {
			return c.Result.EnergyJ
		}
	}
	return -1
}
