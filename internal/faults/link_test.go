package faults

import (
	"reflect"
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

// The link-fault grammar round-trips: full and one-way partitions in
// both spellings, repeated slow windows, and a lossy window, all in one
// spec.
func TestParseSpecLinkFaults(t *testing.T) {
	cfg, err := ParseSpec("partition=1@250ms:100ms,partition=fe|2@300ms,partition=0|fe@400ms:50ms," +
		"linkslow=1@100ms:20ms:8,linkslow=1@200ms:20ms:8,linkloss=2@500ms:40ms:0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Partitions: []Partition{
			{Node: 1, Dir: LinkBoth, At: 250 * sim.Millisecond, Duration: 100 * sim.Millisecond},
			{Node: 2, Dir: LinkTx, At: 300 * sim.Millisecond},
			{Node: 0, Dir: LinkRx, At: 400 * sim.Millisecond, Duration: 50 * sim.Millisecond},
		},
		LinkSlows: []LinkSlow{
			{Node: 1, At: 100 * sim.Millisecond, Duration: 20 * sim.Millisecond, Factor: 8},
			{Node: 1, At: 200 * sim.Millisecond, Duration: 20 * sim.Millisecond, Factor: 8},
		},
		LinkLosses: []LinkLoss{
			{Node: 2, At: 500 * sim.Millisecond, Duration: 40 * sim.Millisecond, Prob: 0.05},
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() || !cfg.LinkFaults() {
		t.Fatal("link faults alone must enable the injector config and report LinkFaults")
	}
	for _, bad := range []struct{ spec, wantSub string }{
		{"partition=1", "TIME"},
		{"partition=x@1ms", "partition"},
		{"partition=-1@1ms", "negative node"},
		{"partition=1|2@1ms", "spelled fe"},
		{"partition=1@1ms:0ms", "must be positive"},
		{"linkslow=1@5ms", "mandatory"},
		{"linkslow=1@5ms:10ms", "factor is mandatory"},
		{"linkslow=1@5ms:0ms:2", "must be positive"},
		{"linkslow=1@5ms:10ms:1", "factor must be > 1"},
		{"linkloss=1@5ms:10ms", "probability is mandatory"},
		{"linkloss=1@5ms:0ms:0.1", "must be positive"},
		{"linkloss=1@5ms:10ms:1.5", "outside"},
		{"linkloss=-1@5ms:10ms:0.1", "negative node"},
	} {
		_, err := ParseSpec(bad.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", bad.spec)
			continue
		}
		if !strings.Contains(err.Error(), bad.wantSub) {
			t.Errorf("ParseSpec(%q) error %q does not name the problem (want %q)", bad.spec, err, bad.wantSub)
		}
	}
}

func TestValidateLinkFaults(t *testing.T) {
	for _, bad := range []Config{
		{Partitions: []Partition{{Node: -1, At: sim.Millisecond}}},
		{Partitions: []Partition{{Node: 0, Dir: 99, At: sim.Millisecond}}},
		{Partitions: []Partition{{Node: 0, At: -sim.Millisecond}}},
		{Partitions: []Partition{{Node: 0, At: sim.Millisecond, Duration: -1}}},
		{LinkSlows: []LinkSlow{{Node: -1, At: 0, Duration: sim.Millisecond, Factor: 2}}},
		{LinkSlows: []LinkSlow{{Node: 0, At: 0, Duration: 0, Factor: 2}}},
		{LinkSlows: []LinkSlow{{Node: 0, At: 0, Duration: sim.Millisecond, Factor: 1}}},
		{LinkLosses: []LinkLoss{{Node: 0, At: 0, Duration: sim.Millisecond, Prob: 0}}},
		{LinkLosses: []LinkLoss{{Node: 0, At: 0, Duration: sim.Millisecond, Prob: 1}}},
		{LinkLosses: []LinkLoss{{Node: 0, At: 0, Duration: 0, Prob: 0.5}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid link fault", bad)
		}
	}
}

// StartLinkFaults arms exactly the scheduled interconnect faults:
// cuts fire at their instants with their direction, timed heals follow
// only when the cut took, slow and lossy windows bracket their
// durations, and vetoed faults (already-cut leg, already-degraded
// link) schedule no follow-up and count nothing.
func TestStartLinkFaultsSchedule(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		Partitions: []Partition{
			{Node: 1, Dir: LinkBoth, At: 10 * sim.Millisecond, Duration: 5 * sim.Millisecond},
			{Node: 0, Dir: LinkRx, At: 20 * sim.Millisecond},               // permanent
			{Node: 2, At: 30 * sim.Millisecond, Duration: sim.Millisecond}, // vetoed below
		},
		LinkSlows: []LinkSlow{
			{Node: 3, At: 12 * sim.Millisecond, Duration: 3 * sim.Millisecond, Factor: 8},
			{Node: 4, At: 40 * sim.Millisecond, Duration: sim.Millisecond, Factor: 2}, // vetoed below
		},
		LinkLosses: []LinkLoss{
			{Node: 3, At: 50 * sim.Millisecond, Duration: 2 * sim.Millisecond, Prob: 0.25},
		},
	}
	inj := New(cfg, sim.NewRNG(1))
	var log []string
	add := func(ev string, at sim.Time) { log = append(log, ev+"@"+sim.Duration(at).String()) }
	inj.StartLinkFaults(eng,
		func(node int, dir LinkDir) bool {
			if node == 1 && dir != LinkBoth {
				t.Fatalf("full partition delivered dir %d, want LinkBoth", dir)
			}
			if node == 0 && dir != LinkRx {
				t.Fatalf("one-way partition delivered dir %d, want LinkRx", dir)
			}
			add("cut", eng.Now())
			return node != 2
		},
		func(node int, dir LinkDir) { add("heal", eng.Now()) },
		func(node int, factor float64) bool {
			if node == 3 && factor != 8 {
				t.Fatalf("slow factor = %g, want 8", factor)
			}
			add("slow", eng.Now())
			return node != 4
		},
		func(node int) { add("unslow", eng.Now()) },
		func(node int, p float64) bool {
			if p != 0.25 {
				t.Fatalf("loss probability = %g, want 0.25", p)
			}
			add("loss-on", eng.Now())
			return true
		},
		func(node int) { add("loss-off", eng.Now()) })
	eng.Run(sim.Time(100 * sim.Millisecond))
	want := []string{
		"cut@10ms", "slow@12ms", "heal@15ms", "unslow@15ms",
		"cut@20ms", "cut@30ms", "slow@40ms", "loss-on@50ms", "loss-off@52ms",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("link-fault schedule = %v, want %v", log, want)
	}
	st := inj.Stats()
	if st.Partitions != 2 || st.PartitionHeals != 1 || st.LinkSlows != 1 || st.LinkLosses != 1 {
		t.Fatalf("stats = %+v, want 2 partitions, 1 heal, 1 slow, 1 lossy window", st)
	}

	// Faults sharing one instant fire in declaration order — Partitions,
	// then LinkSlows, then LinkLosses — and so do their ends.
	eng = sim.NewEngine()
	inj = New(Config{
		LinkLosses: []LinkLoss{{Node: 0, At: 5 * sim.Millisecond, Duration: 5 * sim.Millisecond, Prob: 0.25}},
		LinkSlows:  []LinkSlow{{Node: 1, At: 5 * sim.Millisecond, Duration: 5 * sim.Millisecond, Factor: 8}},
		Partitions: []Partition{{Node: 2, At: 5 * sim.Millisecond, Duration: 5 * sim.Millisecond}},
	}, sim.NewRNG(1))
	log = nil
	inj.StartLinkFaults(eng,
		func(node int, dir LinkDir) bool { add("cut", eng.Now()); return true },
		func(node int, dir LinkDir) { add("heal", eng.Now()) },
		func(node int, factor float64) bool { add("slow", eng.Now()); return true },
		func(node int) { add("unslow", eng.Now()) },
		func(node int, p float64) bool { add("loss-on", eng.Now()); return true },
		func(node int) { add("loss-off", eng.Now()) })
	eng.Run(sim.Time(100 * sim.Millisecond))
	want = []string{"cut@5ms", "slow@5ms", "loss-on@5ms", "heal@10ms", "unslow@10ms", "loss-off@10ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("same-instant link-fault order = %v, want %v", log, want)
	}
}
