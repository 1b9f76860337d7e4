// Package lint is a dependency-free static-analysis framework enforcing
// the simulator's determinism contract (see HACKING.md, "Determinism
// rules"). It mirrors the golang.org/x/tools/go/analysis API surface —
// Analyzer, Pass, Diagnostic — but is built entirely on the standard
// library's go/ast and go/types so the repo stays module-dependency-free.
//
// The analysis runs in two phases. Phase 1 is per-package and
// incremental: the Collector walks each package's AST once and produces
// serializable FuncFacts — direct determinism taint (wall clock, global
// rand, goroutines, channels), allocation sites, context mints, and the
// package's slice of the cross-package call graph. Phase 2 is
// whole-program: BuildProgram indexes every package's facts and the
// ProgramAnalyzers propagate them over the call graph from two root
// sets — the deterministic simulator packages, and the serving layer's
// HTTP handlers.
//
// Four per-package analyzers ship with the package:
//
//   - norealtime:   no wall-clock time in simulation code
//   - noglobalrand: no math/rand global-stream functions outside tests
//   - maporder:     no order-sensitive work inside map iteration
//   - nogoroutine:  no goroutines or channels in simulator packages
//
// plus three whole-program analyzers:
//
//   - detflow:  determinism taint transitively reachable from simulator
//     roots, reported with the full call chain
//   - ctxflow:  context.Background()/TODO() minted on serve request
//     paths, and blocking sim entry points called under a held mutex
//   - hotalloc: allocation sites statically reachable from
//     //gmt:hotpath functions gated at 0 allocs/op, capturing closures
//     included
//
// The driver (cmd/gmtlint) loads packages with Loader, runs everything
// through RunAll, and honors //lint:ignore suppression comments (which
// must name a known analyzer and carry a reason; unused directives are
// themselves reported).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. The shape deliberately matches
// x/tools/go/analysis.Analyzer so analyzers could migrate to the real
// multichecker if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, msg string) {
	p.Report(Diagnostic{Pos: pos, Message: msg})
}

// All returns every per-package analyzer the suite ships, in stable
// order.
func All() []*Analyzer {
	return []*Analyzer{NoRealTime, NoGlobalRand, MapOrder, NoGoroutine}
}

// ProgramAnalyzer is a whole-program check: it runs once over the
// phase-2 Program (cross-package call graph plus per-function facts)
// instead of package by package.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(pass *ProgramPass) error
}

// ProgramPass hands the assembled program to a whole-program analyzer.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Program  *Program

	// DetRoot reports packages whose every function is a determinism
	// root; ServeRoot reports packages whose HTTP-handler-shaped
	// functions are request-path roots. Either may be nil.
	DetRoot   func(pkgPath string) bool
	ServeRoot func(pkgPath string) bool

	// Report records one diagnostic.
	Report func(ProgramDiagnostic)
}

// ProgramDiagnostic is one whole-program finding: a resolved position
// plus the call chain from the analysis root to the violation.
type ProgramDiagnostic struct {
	Pos     token.Position
	Message string
	Chain   []ChainStep
}

// AllProgram returns every whole-program analyzer, in stable order.
func AllProgram() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{DetFlow, CtxFlow, HotAlloc}
}

// KnownAnalyzerNames returns the set of names //lint:ignore directives
// may reference: every shipped analyzer plus the hygiene checks.
func KnownAnalyzerNames() map[string]bool {
	names := map[string]bool{
		BadIgnoreName:    true,
		UnusedIgnoreName: true,
	}
	for _, a := range All() {
		names[a.Name] = true
	}
	for _, a := range AllProgram() {
		names[a.Name] = true
	}
	return names
}

// pkgLevelFunc resolves an identifier use to the package-level function
// it names, or nil for methods, locals, and non-function objects. Works
// for the Sel of a qualified reference (time.Now, t.Now under an
// aliased import) and for bare identifiers from dot-imports.
func pkgLevelFunc(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
