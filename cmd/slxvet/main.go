// Command slxvet is the multichecker for the engine's static soundness
// contracts: it loads the requested packages and runs the four
// internal/lint analyzers (hookparity, canonenc, detorder, replaypure)
// over their non-test sources, printing one line per finding and
// exiting non-zero if any contract is violated.
//
// Usage:
//
//	go run ./cmd/slxvet [packages]
//
// Packages default to ./... resolved in the current directory. Every
// run loads and analyzes its packages afresh, through the same
// analysis.Run call as internal/lint's TestRepoClean, so the command,
// the test and CI's slxvet job report the same findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the multichecker; split from main for testing. Exit
// codes follow go vet: 0 clean, 1 findings, 2 operational failure.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("slxvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "slxvet:", err)
		return 2
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "slxvet:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(stderr, "slxvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
