package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// TestRepoClean is the slxvet smoke test: the full suite over the
// repository itself must report nothing — every soundness-contract
// finding in the tree has been fixed or carries an //slx: exemption
// with its reason. It makes the same analysis.Run call over freshly
// loaded packages as cmd/slxvet and CI's slxvet job, so a failure here
// is a regression against one of the engine contracts (or a new object
// missing its annotation), exactly what they report.
func TestRepoClean(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := analysis.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
