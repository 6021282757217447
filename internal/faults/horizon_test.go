package faults_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"nmapsim/internal/cluster"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
)

// fleetResult runs a 2-node audited fleet under f and returns its JSON
// result: a fleet, so node classes reach a node and link classes arm the
// fabric.
func fleetResult(t *testing.T, f faults.Config) []byte {
	t.Helper()
	node := server.Config{
		Seed: 7, RPS: 120_000, Warmup: 50 * sim.Millisecond, Duration: 150 * sim.Millisecond,
		Audit: true, Faults: f,
	}
	cl, err := cluster.New(cluster.Config{Nodes: 2, Node: node}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Arming any scheduled fault class past the run horizon must leave
// every byte of the result unchanged: the fault never fires, and
// scheduling it may not perturb the physics.
func TestScheduledFaultPastHorizonByteIdentical(t *testing.T) {
	plain := fleetResult(t, faults.Config{})
	for _, k := range faults.ScheduledClasses() {
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			f := k.One(1, 10*sim.Second)
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := fleetResult(t, f); !bytes.Equal(got, plain) {
				t.Fatalf("a %s armed past the horizon changed the result:\nwith:    %s\nwithout: %s", k.Key, got, plain)
			}
		})
	}
}

// Every probabilistic fault class ParseSpec accepts at probability 0
// must leave every byte of the result unchanged: it never strikes, and
// arming it may not draw from a physics stream. The same holds for the
// other random classes at zero strength: jitter of mean 0 and a throttle
// rate of 0 events per second. A class whose spec rejects 0 is listed
// with the error it gives.
func TestZeroProbabilityFaultByteIdentical(t *testing.T) {
	plain := fleetResult(t, faults.Config{})
	for _, c := range []struct{ spec, rejects string }{
		{spec: "loss=0"},
		{spec: "irqloss=0"},
		{spec: "irqjitter=0"},
		{spec: "dmajitter=0"},
		{spec: "throttle=0/2ms"},
		// A lossy-link window needs a drop probability in (0, 1).
		{spec: "linkloss=1@100ms:50ms:0", rejects: `faults: bad linkloss value "1@100ms:50ms:0": probability 0 outside (0, 1)`},
	} {
		t.Run(c.spec, func(t *testing.T) {
			t.Parallel()
			f, err := faults.ParseSpec(c.spec)
			if c.rejects != "" {
				if err == nil || err.Error() != c.rejects {
					t.Fatalf("ParseSpec(%q) = %v, want error %q", c.spec, err, c.rejects)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := fleetResult(t, f); !bytes.Equal(got, plain) {
				t.Fatalf("%s changed the result:\nwith:    %s\nwithout: %s", c.spec, got, plain)
			}
		})
	}
}
