// Command nmapreport runs a policy × load matrix and writes the results
// as JSON records (experiments.Record) for archiving or plotting with
// external tools. Multiple seeds per cell give run-to-run confidence.
//
// Usage:
//
//	nmapreport [-app memcached|nginx|both] [-policies p1,p2,...]
//	           [-seeds N] [-dur MS] [-cdf] [-faults SPEC] [-audit] [-stream] [-o FILE]
//	           [-checkpoint FILE]
package main

import (
	"os"

	"nmapsim/internal/cli"
)

func main() { os.Exit(cli.Report(os.Args[1:], os.Stdout, os.Stderr)) }
