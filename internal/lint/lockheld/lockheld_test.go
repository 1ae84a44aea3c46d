package lockheld_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/lockheld"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata/fixture", lockheld.Analyzer)
}
