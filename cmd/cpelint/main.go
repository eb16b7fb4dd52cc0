// Command cpelint is the multichecker for the repository's static
// invariants: determinism of the simulation core, errors-not-panics in
// library code, the annotation-driven dataflow passes (DESIGN §17), and
// suppression hygiene for //cpelint:ignore directives (DESIGN §12).
//
// It runs in two modes:
//
//	cpelint [-json] [packages]    # standalone, e.g. go run ./cmd/cpelint ./...
//	cpelint <unit>.cfg            # as a `go vet -vettool=` backend
//
// Standalone mode loads packages itself (internal/analysis/load) and exits 1
// when any diagnostic survives the ignore directives. Vettool mode speaks
// the go vet unit-checker protocol: it receives one JSON config per
// compilation unit, analyzes it, writes the (empty) facts file go vet
// expects, and exits 2 on findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

// version participates in go vet's action cache key (reported via -V=full);
// bump it when pass behavior changes so cached clean verdicts are not
// replayed over new rules.
const version = "v1.2.0"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if err := suite.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 3
	}
	// go vet handshake: tool identity for the build cache, then the flag
	// inventory. Both must answer before flag parsing.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			fmt.Printf("cpelint version %s\n", version)
			return 0
		case "-flags", "--flags":
			fmt.Println("[]")
			return 0
		}
	}

	fs := flag.NewFlagSet("cpelint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	list := fs.Bool("list", false, "list the passes and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cpelint [-json] [packages]  |  cpelint <unit>.cfg")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *list {
		for _, a := range suite.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetUnit(rest[0])
	}
	return runStandalone(rest, *jsonOut)
}

func runStandalone(patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpelint:", err)
		return 3
	}
	units, err := load.Packages(dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 3
	}
	var diags []analysis.UnitDiagnostic
	for _, u := range units {
		ds, err := analysis.RunUnit(u.Fset, u.Files, u.Pkg, u.Info, u.GoVersion, suite.Analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpelint: %s: %v\n", u.ImportPath, err)
			return 3
		}
		diags = append(diags, ds...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Message < diags[j].Message
	})
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "cpelint:", err)
			return 3
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "cpelint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// vetConfig is the JSON unit description go vet hands to -vettool backends.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpelint:", err)
		return 3
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cpelint: parsing %s: %v\n", cfgPath, err)
		return 3
	}
	// go vet requires the facts file regardless of findings. cpelint's
	// passes are fact-free, so it is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "cpelint:", err)
			return 3
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, gf := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpelint:", err)
			return 3
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		ef, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ef)
	}
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: cfg.GoVersion,
		Error:     func(error) {},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "cpelint: %s: %v\n", cfg.ImportPath, err)
		return 3
	}
	diags, err := analysis.RunUnit(fset, files, pkg, info, cfg.GoVersion, suite.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpelint: %s: %v\n", cfg.ImportPath, err)
		return 3
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
