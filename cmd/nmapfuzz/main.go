// Command nmapfuzz is the standalone configuration fuzzer: it draws
// random-but-valid server and fleet configurations, runs each one under
// the invariant auditor as a cell of the experiment harness, and
// shrinks any violating configuration to a minimal JSON reproducer on
// disk.
//
// Usage:
//
//	nmapfuzz [-n COUNT] [-seed BASE] [-parallel N] [-out DIR] [-shrink BUDGET] [-v]
//	nmapfuzz -repro FILE
//
// The exit status is 1 iff any run violated an invariant, and 2 on a
// usage error (a negative -n or -parallel, a -shrink below 1, an
// unreadable reproducer). Watchdog aborts are expected outcomes — some
// specs arm MaxEvents on purpose — and are only reported in the
// summary. The output is identical at any -parallel.
package main

import (
	"os"

	"nmapsim/internal/cli"
)

func main() { os.Exit(cli.Fuzz(os.Args[1:], os.Stdout, os.Stderr)) }
