// Package suite registers the cpelint analyzers in their canonical order.
// cmd/cpelint and the analysistest harness both consume this list, so a new
// pass added here is automatically enforced by CI and testable by fixtures.
package suite

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/determinism"
	"repro/internal/analysis/passes/errpanic"
	"repro/internal/analysis/passes/exhaustive"
	"repro/internal/analysis/passes/ignores"
	"repro/internal/analysis/passes/noalloc"
	"repro/internal/analysis/passes/unitsafety"
)

// Analyzers returns the cpelint pass suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		errpanic.Analyzer,
		noalloc.Analyzer,
		unitsafety.Analyzer,
		ctxflow.Analyzer,
		exhaustive.Analyzer,
		ignores.Analyzer,
	}
}

// Validate checks that the registry mirrors analysis.PassNames — the list
// //cpelint:ignore directives are validated against. A mismatch would make
// the directive checker accept (or reject) the wrong pass names, so drivers
// call this once at startup.
func Validate() error {
	as := Analyzers()
	if len(as) != len(analysis.PassNames) {
		return fmt.Errorf("cpelint suite: %d analyzers registered but %d pass names declared", len(as), len(analysis.PassNames))
	}
	for i, a := range as {
		if a.Name != analysis.PassNames[i] {
			return fmt.Errorf("cpelint suite: analyzer %d is %q, pass name list says %q", i, a.Name, analysis.PassNames[i])
		}
	}
	return nil
}
