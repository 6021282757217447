package experiments

import (
	"fmt"
	"strings"

	"nmapsim/internal/faults"
	"nmapsim/internal/report"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// ---------------------------------------------------------------------
// Fig resilience: P99 and shed rate through a core crash and recovery.
// ---------------------------------------------------------------------

// ResilienceBucket is one time slice of the crash/recovery timeline.
type ResilienceBucket struct {
	// FromMs is the bucket's start, in ms since the run began.
	FromMs int
	// Done is the number of requests completed in the bucket.
	Done int
	// P99 is the P99 response time of those completions (0 if none).
	P99 sim.Duration
	// Shed is the number of requests the admission controller refused
	// during the bucket.
	Shed uint64
	// Offline is the number of offline cores at the bucket's end.
	Offline int
}

// ResilienceRun is one pass through the crash scenario (shedding on or
// off), bucketed over the whole run including warmup so the crash is
// visible wherever it lands.
type ResilienceRun struct {
	Name string
	// ShedSLOMultiple is the admission-control knob (0 = shedding off).
	ShedSLOMultiple float64
	Buckets         []ResilienceBucket
	// CrashP99 is the P99 over completions inside the outage window
	// [crash, recovery) — the survivors' latency while one core is dead.
	CrashP99 sim.Duration
	// CrashShed counts requests shed inside the outage window.
	CrashShed uint64
	Result    server.Result
}

// ResilienceFigure is the Fig-resilience result: the same mid-run core
// crash with and without SLO-aware load shedding.
type ResilienceFigure struct {
	App       string
	Policy    string
	CrashCore int
	// CrashAtMs / RecoverAtMs delimit the outage, in ms since run start.
	CrashAtMs, RecoverAtMs int
	BucketMs               int
	Runs                   []ResilienceRun
}

// resilienceShedMultiple is the admission-control setting for the
// shedding arm: refuse a fresh request when the estimated queueing
// delay at its RSS steering target exceeds 4x the SLO.
const resilienceShedMultiple = 4

// FigResilience runs memcached at high load under NMAP, kills core 1
// mid-run, recovers it after a quarter of the measurement window, and
// plots P99 plus shed rate through the timeline — once with the
// admission controller off and once shedding at 4x the SLO.
func (h *Harness) FigResilience(q Quality) (ResilienceFigure, error) {
	prof := workload.Memcached()
	warm, dur := q.warmup(), q.duration()
	crash := faults.CoreCrash{
		Core:     1,
		At:       warm + dur/4,
		Duration: dur / 4,
	}
	bucket := dur / 20
	fig := ResilienceFigure{
		App:         prof.Name,
		Policy:      "nmap",
		CrashCore:   crash.Core,
		CrashAtMs:   int(crash.At / sim.Millisecond),
		RecoverAtMs: int((crash.At + crash.Duration) / sim.Millisecond),
		BucketMs:    int(bucket / sim.Millisecond),
	}
	total := warm + dur
	crashEnd := crash.At + crash.Duration
	sheds := []float64{0, resilienceShedMultiple}
	cells := make([]cell, len(sheds))
	tls := make([]*timeline, len(sheds))
	crashLats := make([][]sim.Duration, len(sheds))
	for i, shed := range sheds {
		cells[i] = cell{
			spec: Spec{
				Policy: "nmap",
				Idle:   "menu",
				Cfg: server.Config{
					Seed:            defaultSeed,
					Profile:         prof,
					Level:           workload.High,
					Warmup:          warm,
					Duration:        dur,
					ShedSLOMultiple: shed,
					Faults:          faults.Config{CoreCrashes: []faults.CoreCrash{crash}},
				},
			},
			observe: func(s *server.Server) {
				tl := newTimeline(s.Eng, total, bucket, func() (uint64, int) {
					return s.Accounting().Shed, s.Proc.OfflineCount()
				})
				tls[i], crashLats[i] = tl, nil
				s.OnDone = func(r *workload.Request) {
					tl.record(r)
					if at := sim.Duration(r.Done); at >= crash.At && at < crashEnd {
						crashLats[i] = append(crashLats[i], r.Latency())
					}
				}
			},
		}
	}
	runs, err := runRows(h, cells, func(i int, c CellResult) ResilienceRun {
		run := ResilienceRun{Name: "shed-off", ShedSLOMultiple: sheds[i], Result: c.Result,
			CrashP99: p99Of(crashLats[i])}
		if sheds[i] > 0 {
			run.Name = fmt.Sprintf("shed@%gxSLO", sheds[i])
		}
		for _, tb := range tls[i].buckets(c.Result.Reqs.Shed) {
			if tb.from >= crash.At && tb.from < crashEnd {
				run.CrashShed += tb.delta
			}
			run.Buckets = append(run.Buckets, ResilienceBucket{
				FromMs:  int(tb.from / sim.Millisecond),
				Done:    tb.done,
				P99:     tb.p99,
				Shed:    tb.delta,
				Offline: tb.offline,
			})
		}
		return run
	})
	fig.Runs = runs
	return fig, err
}

// RenderResilience formats the crash/recovery timeline: one table per
// arm plus a survivors' comparison footer.
func RenderResilience(fig ResilienceFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig resilience: core %d crash at %dms, recovery at %dms (%s, high load, %s) ==\n",
		fig.CrashCore, fig.CrashAtMs, fig.RecoverAtMs, fig.App, fig.Policy)
	for _, run := range fig.Runs {
		t := report.NewTable(fmt.Sprintf("\n-- %s --", run.Name),
			"t(ms)", "done", "p99(ms)", "shed", "offline")
		for _, bk := range run.Buckets {
			t.Row(fmt.Sprint(bk.FromMs),
				fmt.Sprint(bk.Done),
				fmt.Sprintf("%.3f", bk.P99.Millis()),
				fmt.Sprint(bk.Shed),
				fmt.Sprint(bk.Offline))
		}
		b.WriteString(t.String())
		fmt.Fprintf(&b, "run: %v\n", run.Result)
	}
	fmt.Fprintf(&b, "\nsurvivors during the outage window:\n")
	for _, run := range fig.Runs {
		fmt.Fprintf(&b, "  %-12s p99=%.3fms shed=%d (ledger: issued=%d done=%d shed=%d)\n",
			run.Name, run.CrashP99.Millis(), run.CrashShed,
			run.Result.Reqs.Issued, run.Result.Reqs.Completed, run.Result.Reqs.Shed)
	}
	return b.String()
}
