package errflow_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/errflow"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata/fixture", errflow.Analyzer)
}
