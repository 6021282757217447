package main

import "os"

// Example runs the program on a 10ms window of the Fig 9 trace and pins
// its CSV output.
func Example() {
	os.Args = []string{"traceviz", "-policy", "nmap", "-ms", "10"}
	main()
	// Output:
	// ms,pkt_interrupt,pkt_polling,pstate,ksoftirqd_wakes,cc6_entries
	// 0,41,4,15,0,8
	// 1,127,12,15,0,0
	// 2,215,30,0,0,0
	// 3,261,73,0,0,0
	// 4,316,126,0,0,0
	// 5,326,166,0,0,0
	// 6,331,168,0,0,0
	// 7,354,147,0,0,0
	// 8,339,158,0,0,0
	// 9,326,164,0,0,0
}
