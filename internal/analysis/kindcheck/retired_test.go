package kindcheck

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestKindcheckRetired(t *testing.T) {
	retiredKindTags[9] = "legacy envelope tag"
	defer delete(retiredKindTags, 9)
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, dir, Analyzer, "repro/internal/sketch/retiredpkg")
}
