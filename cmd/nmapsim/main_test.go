package main

import (
	"strings"
	"testing"
	"time"

	"nmapsim/internal/sim"
)

// TestValidateFlags pins the CLI error paths for bad flag values: each
// rejection must name the offending flag.
func TestValidateFlags(t *testing.T) {
	// with returns the CLI's flag defaults with one change applied.
	with := func(change func(*simFlags)) simFlags {
		f := simFlags{nodes: 4, route: "rr"}
		change(&f)
		return f
	}
	cases := []struct {
		name    string
		f       simFlags
		wantErr string // empty = accept
	}{
		{"defaults accepted", with(func(*simFlags) {}), ""},
		{"serial with budget accepted", with(func(f *simFlags) { f.parallel, f.cellTimeout = 1, time.Minute }), ""},
		{"negative parallel", with(func(f *simFlags) { f.parallel = -3 }), "-parallel"},
		{"negative cell-timeout", with(func(f *simFlags) { f.cellTimeout = -time.Millisecond }), "-cell-timeout"},
		{"fleet knobs accepted", with(func(f *simFlags) { f.nodes, f.route, f.rto = 1, "flow", 20*time.Millisecond }), ""},
		{"negative rto", with(func(f *simFlags) { f.rto = -5 * time.Millisecond }), "-rto"},
		{"zero nodes", with(func(f *simFlags) { f.nodes = 0 }), "-nodes"},
		{"unknown route", with(func(f *simFlags) { f.route = "bogus" }), "-route"},
		{"empty route is the default", with(func(f *simFlags) { f.route = "" }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want accept, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestParseInjection pins the -faults/-rto/-retries parsing: a good spec
// and retry loop parse, and each usage error names its problem.
func TestParseInjection(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		rto     time.Duration
		retries int
		wantErr string // empty = accept
	}{
		{"defaults accepted", "", 0, 0, ""},
		{"faults with retry loop", "corecrash=1@250ms,queuestall=2@300ms:40ms", 20 * time.Millisecond, 2, ""},
		{"malformed spec", "corecrash=1", 0, 0, "CORE@TIME"},
		{"unknown key", "bogus=1", 0, 0, "unknown key"},
		{"retries without rto", "", 0, 3, "-retries needs -rto"},
		{"negative retries", "", 20 * time.Millisecond, -1, "negative retry budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fcfg, rcfg, err := parseInjection(tc.spec, tc.rto, tc.retries)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want accept, got %v", err)
				}
				if tc.spec != "" && !fcfg.Enabled() {
					t.Fatalf("spec %q parsed to an empty config", tc.spec)
				}
				if tc.rto > 0 && (rcfg.Timeout != sim.Duration(tc.rto) || rcfg.MaxRetries != tc.retries) {
					t.Fatalf("retry config %+v, want timeout %v and %d retries", rcfg, tc.rto, tc.retries)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not name %q", err, tc.wantErr)
			}
		})
	}
}
