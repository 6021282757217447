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

// Arming any scheduled fault class past the run horizon must leave
// every byte of the result unchanged: the fault never fires, and
// scheduling it may not perturb the physics. The run is a 2-node fleet,
// so the node classes reach a node and the link classes arm the fabric.
func TestScheduledFaultPastHorizonByteIdentical(t *testing.T) {
	run := func(t *testing.T, f faults.Config) []byte {
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
	plain := run(t, faults.Config{})
	for _, k := range faults.ScheduledClasses() {
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			f := k.One(1, 10*sim.Second)
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := run(t, f); !bytes.Equal(got, plain) {
				t.Fatalf("a %s armed past the horizon changed the result:\nwith:    %s\nwithout: %s", k.Key, got, plain)
			}
		})
	}
}
