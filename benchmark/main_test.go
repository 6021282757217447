package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	good := options{workload: "all", seed: 1, reps: 5, trace: 1, traceReps: 2, pairs: 10}
	if err := validateFlags(good); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	named := good
	named.workload, named.child = "mc-low-ondemand", true
	if err := validateFlags(named); err != nil {
		t.Fatalf("a named child run rejected: %v", err)
	}
	for _, tc := range []struct {
		flag string
		edit func(*options)
	}{
		{"-workload", func(o *options) { o.workload = "mc-medium" }},
		{"-workload", func(o *options) { o.child = true }},
		{"-reps", func(o *options) { o.reps = 0 }},
		{"-trace", func(o *options) { o.trace = 2 }},
		{"-trace-reps", func(o *options) { o.traceReps = 0 }},
		{"-seconds", func(o *options) { o.seconds = -1 }},
		{"-seconds", func(o *options) { o.seconds = math.Inf(1) }},
		{"-pairs", func(o *options) { o.pairs = 0 }},
		{"-ab", func(o *options) { o.ab = filepath.Join(t.TempDir(), "missing") }},
	} {
		o := good
		tc.edit(&o)
		err := validateFlags(o)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%+v: error %v, want one naming %s", o, err, tc.flag)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "nginx-med-nmap", "--seed", "7", "--seconds", "10", "--trace", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "nginx-med-nmap" || o.seed != 7 || o.seconds != 10 || o.trace != 0 || o.reps != 5 {
		t.Errorf("parsed %+v", o)
	}
	for _, args := range [][]string{
		{"-seed", "-1"},
		{"-reps", "x"},
		{"-workload", "nope"},
		{"extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python.
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 11, 10, 12, 10, 11, 10, 11, 10, 11}
	faster := []float64{13, 14, 13, 15, 13, 14, 13, 14, 13, 14}
	if w, v := verdict("higher", base, faster); v != "gain" || w != 10 {
		t.Errorf("clear gain: wins %d, verdict %q", w, v)
	}
	if w, v := verdict("lower", base, faster); v != "regression" || w != 0 {
		t.Errorf("clear regression: wins %d, verdict %q", w, v)
	}
	near := []float64{10.1, 11.1, 10.1, 12.1, 10.1, 11.1, 10.1, 11.1, 10.1, 11.1}
	if _, v := verdict("higher", base, near); v != "no claim" {
		t.Errorf("gap inside the base's spread: verdict %q, want no claim", v)
	}
	mixed := append([]float64{9, 9}, faster[2:]...)
	if _, v := verdict("higher", base, mixed); v != "no claim" {
		t.Errorf("8/10 wins: verdict %q, want no claim", v)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json and the
// catalogue in step: same workloads, same metrics, units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string
		Unit   string
		Better string
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(catalogue) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the catalogue %d", len(b.Workloads), len(catalogue))
	}
	for i, w := range b.Workloads {
		if w.Name != catalogue[i].name || w.Why != catalogue[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %q: %q", i, w, catalogue[i].name, catalogue[i].why)
		}
	}
	for _, c := range []struct {
		got  []spec
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			w := c.want[i]
			if m != (spec{w.name, w.unit, w.better}) {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %s %s %s", i, m, w.name, w.unit, w.better)
			}
		}
	}
}
