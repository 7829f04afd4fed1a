// Package registry enumerates the unionlint analyzer suite. It exists
// as its own package so both cmd/unionlint and any future embedding
// (e.g. a CI helper) share one list, and so internal/analysis itself
// stays import-cycle-free of the analyzers built on it.
package registry

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ackcontract"
	"repro/internal/analysis/errcontract"
	"repro/internal/analysis/failpointcheck"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/kindcheck"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/mergepure"
	"repro/internal/analysis/seedcheck"
)

// Analyzers returns the full unionlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ackcontract.Analyzer,
		errcontract.Analyzer,
		failpointcheck.Analyzer,
		floatcmp.Analyzer,
		kindcheck.Analyzer,
		lockorder.Analyzer,
		mergepure.Analyzer,
		seedcheck.Analyzer,
	}
}
