package experiments

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nmapsim/internal/core"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

var update = flag.Bool("update", false,
	"rewrite the built-in threshold table (TestBuiltinThresholds), logging each changed entry (see it with -v)")

// thresholdTableFile is the committed table TestBuiltinThresholds checks
// and, with -update, rewrites.
const thresholdTableFile = "thresholds_table.go"

// regenerate names the command that rewrites the table.
const regenerate = "make thresholds (go test -run '^TestBuiltinThresholds$' ./internal/experiments/ -update)"

// tableKeys lists the entries the table must hold, in file order: every
// built-in profile at every seed thresholdSeed returns.
func tableKeys() []thresholdEntry {
	var keys []thresholdEntry
	for _, p := range workload.Profiles() {
		for s := range uint64(4) {
			keys = append(keys, thresholdEntry{app: p.Name, seed: thresholdSeed(s)})
		}
	}
	return keys
}

func sameBits(a, b core.Thresholds) bool {
	return math.Float64bits(a.NITh) == math.Float64bits(b.NITh) &&
		math.Float64bits(a.CUTh) == math.Float64bits(b.CUTh)
}

// fmtThreshold renders v as the shortest literal that parses back to
// the same bits.
func fmtThreshold(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderThresholdTable renders thresholds_table.go.
func renderThresholdTable(entries []thresholdEntry) string {
	var b strings.Builder
	b.WriteString(`// Code generated by "make thresholds"; DO NOT EDIT.

package experiments

import "nmapsim/internal/core"

// thresholdTable holds the §4.2 thresholds of each built-in profile at
// every seed thresholdSeed returns, as strconv round-trip literals (exact
// bits). ProfiledThresholds serves them to unmodified built-in profiles.
var thresholdTable = []thresholdEntry{
`)
	for _, e := range entries {
		fmt.Fprintf(&b, "\t{app: %q, seed: %d, th: core.Thresholds{NITh: %s, CUTh: %s}},\n",
			e.app, e.seed, fmtThreshold(e.th.NITh), fmtThreshold(e.th.CUTh))
	}
	b.WriteString("}\n")
	return b.String()
}

// TestBuiltinThresholds is the oracle of the committed threshold table:
// every entry must equal, bit for bit, what the uncached §4.2 profiling
// run computes today. With -update it rewrites the table instead,
// logging each entry it changed.
func TestBuiltinThresholds(t *testing.T) {
	keys := tableKeys()
	got := make([]thresholdEntry, len(keys))
	t.Run("profile", func(t *testing.T) {
		for i, k := range keys {
			t.Run(fmt.Sprintf("%s/%d", k.app, k.seed), func(t *testing.T) {
				t.Parallel()
				prof, _ := workload.ProfileByName(k.app)
				got[i] = thresholdEntry{app: k.app, seed: k.seed, th: profileThresholds(prof, k.seed)}
			})
		}
	})
	if t.Failed() {
		return
	}

	old := map[thresholdEntry]core.Thresholds{}
	for _, e := range thresholdTable {
		old[thresholdEntry{app: e.app, seed: e.seed}] = e.th
	}
	if *update {
		for i, e := range got {
			was, ok := old[keys[i]]
			switch {
			case !ok:
				t.Logf("%s/%d: added %+v", e.app, e.seed, e.th)
			case !sameBits(was, e.th):
				t.Logf("%s/%d: was %+v, now %+v", e.app, e.seed, was, e.th)
			default:
				t.Logf("%s/%d: unchanged", e.app, e.seed)
			}
		}
		if err := os.WriteFile(thresholdTableFile, []byte(renderThresholdTable(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	if len(thresholdTable) != len(keys) {
		t.Errorf("%s holds %d entries, want %d; regenerate with %s",
			thresholdTableFile, len(thresholdTable), len(keys), regenerate)
	}
	for i, e := range got {
		was, ok := old[keys[i]]
		switch {
		case !ok:
			t.Errorf("%s/%d: no table entry; regenerate with %s", e.app, e.seed, regenerate)
		case !sameBits(was, e.th):
			t.Errorf("%s/%d: table holds %+v, profiling computes %+v; regenerate with %s",
				e.app, e.seed, was, e.th, regenerate)
		}
	}
}

// The table serves a built-in profile however it was reached, and
// nothing else: a renamed copy, a copy with any field changed, or one
// with a different sampler falls through to the memo and profiles.
func TestThresholdTableServesOnlyBuiltins(t *testing.T) {
	const seed = 1002
	for _, p := range append(workload.Profiles(), workload.Memcached(), workload.Nginx()) {
		if _, ok := builtinThresholds(p, seed); !ok {
			t.Errorf("built-in %s missed the table", p.Name)
		}
	}
	if _, ok := builtinThresholds(workload.Memcached(), 777); ok {
		t.Error("a seed outside the table was served from it")
	}

	mods := map[string]func(*workload.Profile){
		"renamed":  func(p *workload.Profile) { p.Name += "-probe" },
		"slo":      func(p *workload.Profile) { p.SLO += sim.Microsecond },
		"high-rps": func(p *workload.Profile) { p.HighRPS++ },
		"flows":    func(p *workload.Profile) { p.Flows = 4 },
		"tx":       func(p *workload.Profile) { p.TxSegments++ },
		"burst":    func(p *workload.Profile) { p.Burst.BurstFrac /= 2 },
		"mean":     func(p *workload.Profile) { p.MeanAppCycles++ },
		"sampler": func(p *workload.Profile) {
			p.SampleAppCycles = func(rng *sim.RNG) float64 { return p.MeanAppCycles * rng.Exp(1) }
		},
		"nil-sampler": func(p *workload.Profile) { p.SampleAppCycles = nil },
	}
	for name, mod := range mods {
		p := workload.Memcached()
		mod(p)
		if th, ok := builtinThresholds(p, seed); ok {
			t.Errorf("%s built-in served from the table: %+v", name, th)
		}
	}
}

// §4.2 profiles the application, not the cell: a cell whose Flows
// override clones its profile must run the same whether or not a
// default-Flows cell of the application profiled first. The renamed
// profile of the lone cell bypasses the table and profiles through the
// memo; the built-in one is served from the table. Two flows on nginx
// profile differently from its forty, so a leak shows.
func TestFlowsOverrideProfilesTheApplication(t *testing.T) {
	spec := func(prof *workload.Profile, flows int) Spec {
		return Spec{Policy: "nmap", Idle: "menu", Cfg: server.Config{
			Seed: 42, Profile: prof, Level: workload.High, Flows: flows,
			Warmup: 50 * sim.Millisecond, Duration: 100 * sim.Millisecond,
		}}
	}
	renamed := workload.Nginx()
	renamed.Name = "nginx-flows-probe"
	h := new(Harness)
	alone, err := runSpec(h, spec(renamed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(h, spec(workload.Nginx(), 0)); err != nil {
		t.Fatal(err)
	}
	after, err := runSpec(h, spec(workload.Nginx(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone, after) {
		t.Fatalf("the Flows=2 cell depends on what profiled first:\nalone: %v\nafter a default cell: %v", alone, after)
	}
}

// The ×1 arm of ablation-thresholds profiles the seed a plain NMAP cell
// profiles, so the two are one cell.
func TestAblationThresholdsUnitArmIsPlainNMAP(t *testing.T) {
	names, specs := thresholdArms(Quick)
	i := slices.Index(names, "NI_TH x1")
	if i < 0 {
		t.Fatalf("no NI_TH x1 arm in %v", names)
	}
	plain := specs[i]
	plain.Thresholds = core.Thresholds{}
	res, err := new(Harness).RunSpecs(context.Background(), []Spec{specs[i], plain})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0].Result, res[1].Result) {
		t.Fatalf("×1 arm diverged from the plain nmap cell:\narm:   %v\nplain: %v", res[0].Result, res[1].Result)
	}
}
