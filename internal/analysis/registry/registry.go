// Package registry enumerates the unionlint analyzer suite. It exists
// as its own package so both cmd/unionlint and any future embedding
// (e.g. a CI helper) share one list, and so internal/analysis itself
// stays import-cycle-free of the analyzers built on it.
package registry

import (
	"repro/internal/analysis"
	"repro/internal/analysis/errcontract"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/mergepure"
	"repro/internal/analysis/seedcheck"
)

// Analyzers returns the full unionlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errcontract.Analyzer,
		floatcmp.Analyzer,
		lockorder.Analyzer,
		mergepure.Analyzer,
		seedcheck.Analyzer,
	}
}
