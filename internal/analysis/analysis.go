// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, just large enough to host the
// cpelint pass suite (cmd/cpelint).
//
// The x/tools module is deliberately not vendored: the simulator has no
// third-party dependencies, and the subset cpelint needs — an Analyzer with
// a Run function over one type-checked package, plus a diagnostic sink — is
// small. Drivers (cmd/cpelint for real packages, the analysistest package
// for fixtures) construct a Pass per compilation unit and collect the
// diagnostics each analyzer reports.
//
// The invariants the passes enforce, and why each one exists, are documented
// in DESIGN.md §12 ("Static invariants").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// PassNames lists the analyzers of the cpelint suite, in report order. The
// ignores pass validates //cpelint:ignore directives against this list, and
// the suite registry asserts it stays in sync.
var PassNames = []string{
	"determinism", "errpanic",
	"noalloc", "unitsafety", "ctxflow", "exhaustive",
	"ignores",
}

// KnownPass reports whether name is an analyzer of the suite.
func KnownPass(name string) bool {
	for _, n := range PassNames {
		if n == name {
			return true
		}
	}
	return false
}

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //cpelint:ignore directives. It must appear in PassNames.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run applies the analyzer to one compilation unit and reports
	// findings through pass.Report. It returns an error only for
	// analyzer-internal failures, never for findings.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked compilation unit.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// GoVersion is the effective language version of the unit
	// ("go1.22"); passes that enforce pre-1.22 semantics (loop-variable
	// capture) consult it.
	GoVersion string

	// Report delivers one finding to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A UnitDiagnostic is a driver-side diagnostic annotated with the analyzer
// that produced it and its resolved source position.
type UnitDiagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d UnitDiagnostic) String() string {
	return d.Pos.String() + ": [" + d.Analyzer + "] " + d.Message
}

// RunUnit applies every analyzer to one compilation unit, then applies the
// unit's //cpelint:ignore directives: suppressed findings are dropped, and
// every well-formed directive that suppressed nothing becomes an "ignores"
// diagnostic itself (suppression hygiene — stale escape hatches rot into
// lies about what the code does).
func RunUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, goVersion string, analyzers []*Analyzer) ([]UnitDiagnostic, error) {
	var diags []UnitDiagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			GoVersion: goVersion,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			diags = append(diags, UnitDiagnostic{
				Analyzer: name,
				Pos:      fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	ignores := CollectIgnores(fset, files)
	kept, unused := ApplyIgnores(diags, ignores)
	for _, ig := range unused {
		kept = append(kept, UnitDiagnostic{
			Analyzer: "ignores",
			Pos:      fset.Position(ig.Pos),
			Message:  "unused cpelint:ignore directive for pass " + strconv.Quote(ig.Pass) + ": nothing suppressed on this or the next line",
		})
	}
	return kept, nil
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// CalleeFunc resolves the static callee of call, or nil when the callee is
// not a declared function or method (builtins, function values, conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level function pkgPath.name
// (not a method).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// LangVersionBefore reports whether goVersion (a "go1.N" string) is known to
// be strictly before "go1.minor". Unknown or unparsable versions report
// false: the driver feeds the module's declared language version, and when
// in doubt the passes assume current semantics rather than invent findings.
func LangVersionBefore(goVersion string, minor int) bool {
	s, ok := strings.CutPrefix(goVersion, "go1.")
	if !ok {
		return false
	}
	// Trim patch releases and release candidates: "go1.21.3", "go1.21rc1".
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			s = s[:i]
			break
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return false
	}
	return n < minor
}
