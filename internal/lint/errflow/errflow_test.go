package errflow_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/errflow"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata/fixture", errflow.Analyzer)
}

// TestFix proves the err -> _ autofix matches the golden, still compiles,
// and leaves nothing for a second -fix pass.
func TestFix(t *testing.T) {
	analysistest.RunFix(t, "testdata/fixture", errflow.Analyzer)
}
