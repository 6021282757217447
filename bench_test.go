package nmapsim

import (
	"context"
	"testing"

	"nmapsim/internal/experiments"
)

// BenchmarkFigures runs every entry of the evaluation catalog, the one
// list cmd/nmapsim runs, at Quick quality (shorter measurement windows
// than the full tables, same code paths) as one sub-benchmark named for
// the entry's first name. The fleet figures run on nmapsim's default
// fleet shape, 4 nodes routed round-robin. The result is the wall-clock
// time of each table, figure and ablation; the golden corpus and the
// shape tests pin their numbers. Run `cmd/nmapsim <exp>` for the
// full-quality tables.
func BenchmarkFigures(b *testing.B) {
	for _, f := range experiments.Figures() {
		b.Run(f.Names[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := experiments.FigureRun{Harness: new(experiments.Harness), Quality: experiments.Quick, Nodes: 4, Route: "rr"}
				if _, err := f.Run(context.Background(), r); err != nil {
					b.Fatal(err)
				}
			}
		})
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
