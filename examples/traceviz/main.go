// Example: dump the Fig 2 / Fig 9 time series (packets processed in
// interrupt vs polling mode, P-state, ksoftirqd wakes, CC6 entries, all
// per millisecond) as CSV on stdout, for plotting with any external
// tool.
//
// Usage:
//
//	traceviz [-app memcached|nginx] [-policy NAME] [-ms N]
package main

import (
	"flag"
	"fmt"
	"os"

	"nmapsim/internal/experiments"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

func main() {
	app := flag.String("app", "memcached", "workload: memcached or nginx")
	policy := flag.String("policy", "ondemand", "power policy (ondemand reproduces Fig 2, nmap Fig 9)")
	ms := flag.Int("ms", 500, "trace window in milliseconds")
	flag.Parse()

	prof, ok := workload.ProfileByName(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "traceviz: unknown app %q\n", *app)
		os.Exit(2)
	}

	tf, err := experiments.RunTrace(prof, workload.High, *policy, "menu",
		sim.Duration(*ms)*sim.Millisecond, experiments.Full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceviz: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("ms,pkt_interrupt,pkt_polling,pstate,ksoftirqd_wakes,cc6_entries")
	for i := 0; i < tf.Ms; i++ {
		ps := 0.0
		if i < len(tf.PState) {
			ps = tf.PState[i]
		}
		fmt.Printf("%d,%.0f,%.0f,%.0f,%.0f,%.0f\n",
			i, tf.PktIntr[i], tf.PktPoll[i], ps, tf.KsWakes[i], tf.CC6[i])
	}
	fmt.Fprintf(os.Stderr, "run: %v\n", tf.Result)
}
