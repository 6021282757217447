package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// The same-host A/B comparison: a base build and this build run in
// alternating pairs, one untraced repetition per side, with the side
// that goes first alternating pair by pair. A metric counts as moved
// only by the rule in README.md: one side wins at least nine tenths of
// the pairs (ties count for neither) and the medians differ by more
// than the base's interquartile range.

// abMain runs -pairs pairs per selected workload and prints the verdict
// table. It fails when either side fails its correctness gate.
func abMain(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, w := range selected(o) {
		var base, head []map[string]float64
		for i := 0; i < o.pairs; i++ {
			type side struct {
				bin string
				out *[]map[string]float64
			}
			sides := [2]side{{o.ab, &base}, {self, &head}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, sd := range sides {
				m, err := runSide(sd.bin, w.name, o.seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s pair %d, %s: %v\n", w.name, i, sd.bin, err)
					return 1
				}
				*sd.out = append(*sd.out, m)
			}
		}
		printAB(os.Stdout, w.name, o.pairs, base, head)
	}
	return 0
}

// runSide runs one untraced repetition of a workload with the benchmark
// binary bin and returns its end-to-end metrics.
func runSide(bin, workload string, seed uint64) (map[string]float64, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-reps", "1", "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("correctness gate failed")
	}
	m := map[string]float64{}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// verdict applies the gain rule to one metric's pairs and returns the
// pairs the current build won with the verdict.
func verdict(better string, base, head []float64) (wins int, v string) {
	losses := 0
	for i := range base {
		d := head[i] - base[i]
		if better == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	gap := median(head) - bmed
	if better == "lower" {
		gap = -gap
	}
	n := len(base)
	switch {
	case 10*wins >= 9*n && gap > bq3-bq1:
		return wins, "gain"
	case 10*losses >= 9*n && -gap > bq3-bq1:
		return wins, "regression"
	}
	return wins, "no claim"
}

// printAB prints each end-to-end metric's medians and quartiles per side,
// the current build's wins, and the verdict.
func printAB(w io.Writer, name string, pairs int, base, head []map[string]float64) {
	fmt.Fprintf(w, "== %s: %d alternating pairs, base vs current\n", name, pairs)
	fmt.Fprintf(w, "  %-18s %-8s %30s %30s %7s  %s\n", "metric", "unit", "base median [q1, q3]", "current median [q1, q3]", "wins", "verdict")
	col := func(m []map[string]float64, key string) []float64 {
		xs := make([]float64, len(m))
		for i, r := range m {
			xs[i] = r[key]
		}
		return xs
	}
	for _, s := range endToEnd {
		b, h := col(base, s.name), col(head, s.name)
		wins, v := verdict(s.better, b, h)
		bq1, bm, bq3 := quartiles(b)
		hq1, hm, hq3 := quartiles(h)
		fmt.Fprintf(w, "  %-18s %-8s %30s %30s %3d/%-3d  %s\n", s.name, s.unit,
			fmt.Sprintf("%.5g [%.5g, %.5g]", bm, bq1, bq3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", hm, hq1, hq3), wins, pairs, v)
	}
}
