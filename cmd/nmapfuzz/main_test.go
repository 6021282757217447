package main

import (
	"strings"
	"testing"
)

// TestValidateFlags pins the CLI error paths for bad numeric flags: each
// rejection must name the offending flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       fuzzFlags
		wantErr string // empty = accept
	}{
		{"defaults accepted", fuzzFlags{count: 200}, ""},
		{"zero runs accepted", fuzzFlags{}, ""},
		{"negative n", fuzzFlags{count: -1}, "-n"},
		{"negative parallel", fuzzFlags{count: 200, parallel: -3}, "-parallel"},
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
