package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins the CLI error paths for bad numeric flags: each
// rejection must name the offending flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       simFlags
		wantErr string // empty = accept
	}{
		{"defaults accepted", simFlags{}, ""},
		{"serial with budget accepted", simFlags{parallel: 1, cellTimeout: time.Minute}, ""},
		{"negative parallel", simFlags{parallel: -3}, "-parallel"},
		{"negative cell-timeout", simFlags{cellTimeout: -time.Millisecond}, "-cell-timeout"},
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
