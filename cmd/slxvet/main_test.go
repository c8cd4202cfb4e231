package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins slxvet's go vet exit contract: 0 and no output on
// a clean package, 1 with one line per finding when an analyzer
// reports, 2 on a bad command line. -facts is an unknown flag like any
// other: slxvet keeps no analysis cache.
func TestExitCodes(t *testing.T) {
	const clean = "../../internal/lint/pragma"
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring every stdout line holds; "" wants none
		stderr string // substring of stderr; "" wants none
	}{
		{"clean", []string{clean}, 0, "", ""},
		{"findings", []string{"../../internal/lint/hookparity/testdata/src/hookparity"}, 1, "(hookparity)", ""},
		{"unknown flag", []string{"-nosuch", clean}, 2, "", "flag provided but not defined: -nosuch"},
		{"facts", []string{"-facts", "", clean}, 2, "", "flag provided but not defined: -facts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.code {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, got, tc.code, &stdout, &stderr)
			}
			lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
			switch {
			case tc.stdout == "" && stdout.Len() > 0:
				t.Errorf("stdout = %q, want none", &stdout)
			case tc.stdout != "" && stdout.Len() == 0:
				t.Errorf("no findings printed, want lines holding %q", tc.stdout)
			case tc.stdout != "":
				for _, l := range lines {
					if !strings.Contains(l, tc.stdout) {
						t.Errorf("finding %q does not hold %q", l, tc.stdout)
					}
				}
			}
			if tc.stderr == "" && stderr.Len() > 0 {
				t.Errorf("stderr = %q, want none", &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr = %q, want it to hold %q", &stderr, tc.stderr)
			}
		})
	}
}
