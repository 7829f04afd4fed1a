package kindcheck_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/kindcheck"
)

func testdata(t *testing.T) string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestKindcheck(t *testing.T) {
	analysistest.Run(t, testdata(t), kindcheck.Analyzer,
		"repro/internal/sketch/good",
		"repro/internal/sketch/twice",
		"repro/internal/sketch/tagzero",
		"repro/internal/sketch/wrapverb",
		"repro/internal/sketch/mixedrecv",
		"repro/internal/sketch/nonconst",
		"repro/internal/sketch/kinds",
	)
}

func TestKindcheckWire(t *testing.T) {
	analysistest.Run(t, testdata(t), kindcheck.Analyzer, "repro/internal/wire")
}
