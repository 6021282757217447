// Command nmapsweep generates latency-load curves: P99 response time and
// package energy as the offered load sweeps from a fraction of the low
// level to beyond the high level, for any policy/idle combination. This
// is the tool used to locate the latency-load inflection points that set
// the SLOs (§3.1 methodology).
//
// Usage:
//
//	nmapsweep [-app memcached|nginx] [-policy NAME] [-idle NAME]
//	          [-points N] [-dur MS] [-stream] [-checkpoint FILE] [-fsck]
//	          [-quarantine] [-mem-budget-mb N]
//
// Exit codes:
//
//	0  sweep (or -fsck scan) completed cleanly
//	1  hard failure: a cell error without -quarantine, an I/O error, or
//	   a damaged journal under -fsck
//	2  usage error (bad flag values, unknown app)
//	3  the sweep itself completed, but -quarantine left at least one
//	   cell quarantined: its rows are rendered (marked QUARANTINED) and
//	   the partial curve is usable, yet the table has holes. Automation
//	   must not mistake that for a clean run — resume with -checkpoint
//	   to retry the quarantined cells.
package main

import (
	"os"

	"nmapsim/internal/cli"
)

func main() { os.Exit(cli.Sweep(os.Args[1:], os.Stdout, os.Stderr)) }
