package experiments

import (
	"fmt"
	"strings"

	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// ---------------------------------------------------------------------
// Fig resilience: P99 and shed rate through a core crash and recovery.
// ---------------------------------------------------------------------

// ResilienceRun is one pass through the crash scenario (shedding on or
// off), bucketed over the whole run including warmup so the crash is
// visible wherever it lands.
type ResilienceRun struct {
	Name string
	// ShedSLOMultiple is the admission-control knob (0 = shedding off).
	ShedSLOMultiple float64
	// Buckets count shed requests and offline cores.
	Buckets []TimelineBucket
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

// figResilience runs memcached at high load under NMAP, kills core 1
// mid-run, recovers it after a quarter of the measurement window, and
// plots P99 plus shed rate through the timeline — once with the
// admission controller off and once shedding at 4x the SLO.
func (h *Harness) figResilience(q Quality) (ResilienceFigure, error) {
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
	crashEnd := crash.At + crash.Duration
	sheds := []float64{0, resilienceShedMultiple}
	cells := make([]cell, len(sheds))
	sms := make([]*sampler, len(sheds))
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
				sms[i] = sampleServer(s, bucket, func(r *reading) {
					r.count, r.offline = s.Accounting().Shed, s.Proc.OfflineCount()
				})
			},
		}
	}
	runs, err := runRows(h, cells, func(i int, c CellResult) ResilienceRun {
		run := ResilienceRun{Name: "shed-off", ShedSLOMultiple: sheds[i], Result: c.Result,
			CrashP99: sms[i].p99Between(sim.Time(crash.At), sim.Time(crashEnd)),
			Buckets:  sms[i].timeline()}
		if sheds[i] > 0 {
			run.Name = fmt.Sprintf("shed@%gxSLO", sheds[i])
		}
		for _, bk := range run.Buckets {
			if from := sim.Duration(bk.FromMs) * sim.Millisecond; from >= crash.At && from < crashEnd {
				run.CrashShed += bk.Count
			}
		}
		return run
	})
	fig.Runs = runs
	return fig, err
}

// renderResilience formats the crash/recovery timeline: one table per
// arm plus a survivors' comparison footer.
func renderResilience(title string, fig ResilienceFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: core %d crash at %dms, recovery at %dms (%s, high load, %s) ==\n",
		title, fig.CrashCore, fig.CrashAtMs, fig.RecoverAtMs, fig.App, fig.Policy)
	for _, run := range fig.Runs {
		writeTimeline(&b, fmt.Sprintf("\n-- %s --", run.Name), "shed", "offline", run.Buckets)
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
