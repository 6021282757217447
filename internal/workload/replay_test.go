package workload

import (
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

func TestParseTraceBasic(t *testing.T) {
	in := `# comment
10.5
20,3
30,,5000
40,7,6000
`
	entries, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].At != 10500 || entries[0].Flow != -1 || entries[0].AppCycles != 0 {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].Flow != 3 {
		t.Fatalf("entry 1 flow = %d", entries[1].Flow)
	}
	if entries[2].AppCycles != 5000 || entries[2].Flow != -1 {
		t.Fatalf("entry 2 = %+v", entries[2])
	}
	if entries[3].Flow != 7 || entries[3].AppCycles != 6000 {
		t.Fatalf("entry 3 = %+v", entries[3])
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"abc",     // bad timestamp
		"10,xy",   // bad flow
		"10,1,zz", // bad cycles
		"20\n10",  // decreasing timestamps
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Errorf("trace %q accepted", c)
		}
	}
}

// A trace written in the documented at_us,flow,app_cycles form, header
// included, parses back to the entries it was written from.
func TestTraceRoundTrip(t *testing.T) {
	// The entries {At: 1000, Flow: 2, AppCycles: 4000} and
	// {At: 2500, Flow: -1, AppCycles: 0}.
	in := "# at_us,flow,app_cycles\n1.000,2,4000\n2.500,-1,0\n"
	back, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].At != 1000 || back[0].Flow != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	// AppCycles 0 round-trips as "sample from profile" (<= 0).
	if back[1].AppCycles > 0 {
		t.Fatalf("zero cycles became %f", back[1].AppCycles)
	}
}

func TestReplayerSchedulesArrivals(t *testing.T) {
	eng := sim.NewEngine()
	var got []sim.Time
	var flows []uint64
	rp := &Replayer{
		Eng:     eng,
		RNG:     sim.NewRNG(1),
		Profile: Memcached(),
		Trace: []TraceEntry{
			{At: 100, Flow: 5, AppCycles: 1234},
			{At: 300, Flow: -1},
		},
		Deliver: func(r *Request) {
			got = append(got, r.Sent)
			flows = append(flows, r.Flow)
			if r.Sent == 100 && r.AppCycles != 1234 {
				t.Errorf("cycles override lost: %f", r.AppCycles)
			}
			if r.Sent == 300 && r.AppCycles <= 0 {
				t.Error("profile sampling not applied")
			}
		},
	}
	rp.Start()
	eng.Run(sim.Time(sim.Second))
	if len(got) != 2 || got[0] != 100 || got[1] != 300 {
		t.Fatalf("arrivals = %v", got)
	}
	if flows[0] != 5 {
		t.Fatalf("flow override lost: %d", flows[0])
	}
}

func TestReplayerLoops(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	rp := &Replayer{
		Eng:        eng,
		RNG:        sim.NewRNG(1),
		Profile:    Memcached(),
		Trace:      []TraceEntry{{At: 10}, {At: 20}},
		LoopPeriod: 100 * sim.Microsecond,
		Deliver:    func(*Request) { n++ },
	}
	rp.Start()
	eng.Run(sim.Time(350 * sim.Microsecond))
	// Plays at 10,20 then 100110,100120ns... loop period is 100µs:
	// iterations at t=0, 100µs, 200µs, 300µs → 8 arrivals by 350µs.
	if n != 8 {
		t.Fatalf("looped arrivals = %d, want 8", n)
	}
}

func TestReplayerUniqueIDs(t *testing.T) {
	eng := sim.NewEngine()
	seen := map[uint64]bool{}
	rp := &Replayer{
		Eng:     eng,
		RNG:     sim.NewRNG(1),
		Profile: Memcached(),
		Trace:   []TraceEntry{{At: 1}, {At: 2}, {At: 3}},
		Deliver: func(r *Request) {
			if seen[r.ID] {
				t.Fatalf("duplicate id %d", r.ID)
			}
			seen[r.ID] = true
		},
	}
	rp.Start()
	eng.Run(sim.Time(sim.Millisecond))
	if len(seen) != 3 {
		t.Fatalf("ids = %d", len(seen))
	}
}
