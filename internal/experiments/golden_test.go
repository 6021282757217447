package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

var update = flag.Bool("update", false,
	"rewrite the golden files under testdata/golden (TestGolden) or the built-in threshold table "+
		"(TestBuiltinThresholds), logging what changed (see it with -v)")

// goldenCase is one CLI invocation of the golden corpus: the run
// conditions its flags set and the stdout it prints, rendered through the
// CLI's own Render*/WriteJSON call and title.
type goldenCase struct {
	file   string // under testdata/golden; the command is in its comment below
	faults string
	retry  workload.RetryConfig
	audit  bool
	stream bool
	// auditToo also renders the case under Audit: the auditor is a pure
	// observer and may not change a byte.
	auditToo bool
	stdout   func(h *Harness) (string, error)
}

var goldenCases = []goldenCase{
	// nmapsim -quick table1
	{file: "table1.txt", stdout: func(*Harness) (string, error) {
		return RenderTable1(Table1(500)) + "\n", nil
	}},
	// nmapsim -quick -faults loss=0.02,irqloss=0.001,irqjitter=2us,throttle=50/2ms@10 -rto 20ms fig9
	{
		file:     "fig9-faults.txt",
		faults:   "loss=0.02,irqloss=0.001,irqjitter=2us,throttle=50/2ms@10",
		retry:    workload.RetryConfig{Timeout: 20 * sim.Millisecond},
		auditToo: true,
		stdout: func(h *Harness) (string, error) {
			figs, err := h.Fig9(Quick)
			return RenderTraceFigures("Fig 9: NMAP, high load", figs) + "\n", err
		},
	},
	// nmapsim -quick -audit fig-resilience
	{file: "fig-resilience-audit.txt", audit: true, stdout: func(h *Harness) (string, error) {
		fig, err := h.FigResilience(Quick)
		return RenderResilience(fig) + "\n", err
	}},
	// nmapsim -quick -audit -nodes 3 fig-cluster
	{file: "fig-cluster-audit-nodes3.txt", audit: true, stdout: func(h *Harness) (string, error) {
		fig, err := h.FigCluster(Quick, 3, "rr", false)
		return RenderCluster(fig) + "\n", err
	}},
	// nmapsim -quick -audit -nodes 3 -hedge -rto 20ms fig-cluster
	//
	// Hedge timers and client RTO timers on a fleet: nearly every RTO
	// timer is cancelled microseconds after it is armed, and the crashed
	// node's requests retransmit, so the calendar's geometry runs far
	// from the plain fig-cluster case's.
	{
		file:  "fig-cluster-audit-hedge-rto-nodes3.txt",
		retry: workload.RetryConfig{Timeout: 20 * sim.Millisecond},
		audit: true,
		stdout: func(h *Harness) (string, error) {
			fig, err := h.FigCluster(Quick, 3, "rr", true)
			return RenderCluster(fig) + "\n", err
		},
	},
	// nmapsim -quick -audit -nodes 3 fig-grayfail
	{file: "fig-grayfail-audit-nodes3.txt", audit: true, stdout: func(h *Harness) (string, error) {
		fig, err := h.FigGrayFail(Quick, 3, "rr")
		return RenderGrayFail(fig) + "\n", err
	}},
	// nmapreport -seeds 1 -dur 100
	{file: "nmapreport-seeds1-dur100.json", stdout: func(h *Harness) (string, error) {
		return reportMatrix(h, workload.Profiles(), false)
	}},
	// nmapreport -app memcached -seeds 1 -dur 100 -cdf
	//
	// 51-point latency CDFs per cell, read from the exact recorder.
	{file: "nmapreport-memcached-cdf-seeds1-dur100.json", stdout: func(h *Harness) (string, error) {
		return reportMatrix(h, []*workload.Profile{workload.Memcached()}, true)
	}},
	// nmapreport -app memcached -seeds 1 -dur 100 -cdf -stream
	//
	// The same CDFs from the bounded streaming recorder.
	{file: "nmapreport-memcached-cdf-stream-seeds1-dur100.json", stream: true, stdout: func(h *Harness) (string, error) {
		return reportMatrix(h, []*workload.Profile{workload.Memcached()}, true)
	}},
	// nmapsim -quick fig11
	//
	// P50–P99.9 response-time lines from the exact recorder.
	{file: "fig11.txt", stdout: func(h *Harness) (string, error) {
		figs, err := h.Fig10And11(Quick)
		return RenderLatencyFigures("Figs 10+11: NMAP, high load", figs) + "\n", err
	}},
	// nmapreport -app nginx -seeds 1 -dur 100 -audit -faults corecrash=1@250ms:40ms,queuestall=2@260ms:20ms,irqloss=0.001
	//
	// nginx's 48-segment responses are in flight on the NIC while a core
	// crash offlines its queue, a queue stall wedges another, and lost
	// interrupts leave queues unmasked.
	{
		file:   "nmapreport-nginx-faults-audit-seeds1-dur100.json",
		faults: "corecrash=1@250ms:40ms,queuestall=2@260ms:20ms,irqloss=0.001",
		audit:  true,
		stdout: func(h *Harness) (string, error) {
			nginx, _ := workload.ProfileByName("nginx")
			return reportMatrix(h, []*workload.Profile{nginx}, false)
		},
	},
}

// reportMatrix renders nmapreport's JSON for one seed and a 100 ms window
// over profs × every load level × ondemand/performance/nmap, with the
// latency CDFs when withCDF is set (-cdf).
func reportMatrix(h *Harness, profs []*workload.Profile, withCDF bool) (string, error) {
	var specs []Spec
	for _, prof := range profs {
		for _, lvl := range workload.Levels {
			for _, pol := range []string{"ondemand", "performance", "nmap"} {
				specs = append(specs, Spec{Policy: pol, Idle: "menu", Cfg: server.Config{
					Seed: 42, Profile: prof, Level: lvl,
					Warmup: 200 * sim.Millisecond, Duration: 100 * sim.Millisecond,
				}})
			}
		}
	}
	results, err := h.RunSpecs(specs)
	records := make([]Record, len(specs))
	for i, res := range results {
		records[i] = NewRecord(specs[i], res, withCDF)
	}
	var b bytes.Buffer
	if err == nil {
		err = WriteJSON(&b, records)
	}
	return b.String(), err
}

// TestGolden is the byte gate of the harness: every figure in the corpus
// must render exactly the bytes its CLI printed when the file was
// written, serially and on a 4-worker pool. Any drift in physics, fan-out
// determinism, fault choreography or rendering fails it. Run with
// -update to rewrite the files after an intended output change.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		inj, err := faults.ParseSpec(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		type run struct {
			parallel int
			audit    bool
		}
		runs := []run{{1, c.audit}, {4, c.audit}}
		if c.auditToo {
			runs = append(runs, run{4, true})
		}
		path := filepath.Join("testdata", "golden", c.file)
		for _, r := range runs {
			t.Run(fmt.Sprintf("%s/parallel=%d/audit=%v", c.file, r.parallel, r.audit), func(t *testing.T) {
				got, err := c.stdout(&Harness{Parallel: r.parallel, Faults: inj, Retry: c.retry, Audit: r.audit, Streaming: c.stream})
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(path)
				if *update {
					t.Logf("%s: %s", c.file, diffSummary(string(want), got))
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					want, err = []byte(got), nil
				}
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Fatalf("%s drifted from its golden bytes (rerun with -update only for an intended change):\n--- got ---\n%s\n--- want ---\n%s",
						c.file, got, want)
				}
			})
		}
	}
}

// diffSummary describes how -update changes a golden file: "unchanged",
// or the size of the differing region (the lines left once the common
// leading and trailing lines are set aside, counted on the longer side)
// and its first line on each side.
func diffSummary(before, after string) string {
	if before == after {
		return "unchanged"
	}
	a, b := strings.Split(before, "\n"), strings.Split(after, "\n")
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	line := func(ls []string) string {
		if pre < len(ls)-suf {
			return fmt.Sprintf("%q", ls[pre])
		}
		return "(nothing)"
	}
	return fmt.Sprintf("%d line(s) changed; first at line %d: was %s, now %s",
		max(len(a), len(b))-pre-suf, pre+1, line(a), line(b))
}

func TestDiffSummary(t *testing.T) {
	cases := []struct{ before, after, want string }{
		{"a\nb\n", "a\nb\n", "unchanged"},
		{"a\nb\nc\n", "a\nB\nC\n", `2 line(s) changed; first at line 2: was "b", now "B"`},
		{"a\n", "a\nb\n", `1 line(s) changed; first at line 2: was (nothing), now "b"`},
		{"a\nb\n", "b\n", `1 line(s) changed; first at line 1: was "a", now (nothing)`},
		{"", "x", `1 line(s) changed; first at line 1: was "", now "x"`},
	}
	for _, c := range cases {
		if got := diffSummary(c.before, c.after); got != c.want {
			t.Errorf("diffSummary(%q, %q) = %s, want %s", c.before, c.after, got, c.want)
		}
	}
}
