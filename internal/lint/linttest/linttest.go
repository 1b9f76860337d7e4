// Package linttest runs lint analyzers against fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest: fixtures live
// under testdata/src/<pkg>/ and annotate the lines where diagnostics are
// expected with
//
//	// want `regexp`
//
// comments. Run fails the test when an expected diagnostic is missing,
// an unexpected one fires, or a message does not match its pattern.
//
// Fixture packages may import each other by bare directory name
// (import "dethelper" resolves to testdata/src/dethelper), which is how
// the whole-program analyzers are exercised: LoadProgram loads a closure
// of fixture packages, RunProgram collects facts, builds the program,
// and checks the cross-package diagnostics against the same // want
// annotations.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/lint"
)

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// Load parses and type-checks the fixture package at
// <testdata>/src/<pkg>, failing the test on any error: fixtures must
// compile. Imports of sibling fixture packages resolve by directory
// name.
func Load(t *testing.T, testdata string, pkg string) (*token.FileSet, *lint.Package) {
	t.Helper()
	fset, pkgs := LoadProgram(t, testdata, pkg)
	for _, p := range pkgs {
		if p.Path == pkg {
			return fset, p
		}
	}
	t.Fatalf("fixture package %q did not load", pkg)
	return nil, nil
}

// LoadProgram loads the named fixture packages plus everything they
// import from testdata/src, returning the full closure (requested
// packages first, transitive fixtures after, each loaded exactly once).
func LoadProgram(t *testing.T, testdata string, pkgs ...string) (*token.FileSet, []*lint.Package) {
	t.Helper()
	l := &fixtureLoader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		pkgs:     make(map[string]*lint.Package),
		loading:  make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, pkg := range pkgs {
		if _, err := l.Import(pkg); err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
	}
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if !seen[pkg] {
			seen[pkg] = true
			out = append(out, l.pkgs[pkg])
		}
	}
	var rest []string
	for path := range l.pkgs {
		if !seen[path] {
			rest = append(rest, path)
		}
	}
	sort.Strings(rest)
	for _, path := range rest {
		out = append(out, l.pkgs[path])
	}
	return l.fset, out
}

// fixtureLoader resolves imports among fixture packages (by directory
// under testdata/src) and defers everything else to the source importer.
type fixtureLoader struct {
	testdata string
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*lint.Package
	loading  map[string]bool
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	dir := filepath.Join(l.testdata, "src", path)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle among fixtures at %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	p, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.Types, nil
}

func (l *fixtureLoader) load(path, dir string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading fixture dir: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing fixture: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	return &lint.Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// Facts collects phase-1 facts for the given fixture packages and
// builds the whole-program index; Within is the fixture package set.
func Facts(fset *token.FileSet, pkgs []*lint.Package) *lint.Program {
	within := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		within[p.Path] = true
	}
	coll := &lint.Collector{Fset: fset, Within: func(path string) bool { return within[path] }}
	var all []*lint.PackageFacts
	for _, p := range pkgs {
		all = append(all, coll.Package(p))
	}
	return lint.BuildProgram(all)
}

// Run loads the fixture package and checks the analyzer's diagnostics
// against its // want annotations.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkg string) {
	t.Helper()
	fset, lpkg := Load(t, testdata, pkg)
	findings, err := lint.RunAll(fset, []*lint.Package{lpkg}, lint.RunConfig{Analyzers: []*lint.Analyzer{a}})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	CheckWants(t, fset, []*lint.Package{lpkg}, findings)
}

// RunProgram loads the fixture packages (and their fixture imports),
// runs the whole-program analyzers over them, and checks the findings
// against the // want annotations across every loaded file.
func RunProgram(t *testing.T, testdata string, analyzers []*lint.ProgramAnalyzer, pkgs ...string) {
	t.Helper()
	fset, lpkgs := LoadProgram(t, testdata, pkgs...)
	program := Facts(fset, lpkgs)
	findings, err := lint.RunAll(fset, lpkgs, lint.RunConfig{
		ProgramAnalyzers: analyzers,
		Program:          program,
	})
	if err != nil {
		t.Fatalf("running program analyzers: %v", err)
	}
	CheckWants(t, fset, lpkgs, findings)
}

// CheckWants matches findings against the // want annotations in the
// packages' files: every finding must match a want on its line, and
// every want must be matched by some finding.
func CheckWants(t *testing.T, fset *token.FileSet, pkgs []*lint.Package, findings []lint.Finding) {
	t.Helper()
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Position.Filename, f.Position.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, f.Analyzer, f.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("missing diagnostic at %s: expected message matching %q", key, w.re)
			}
		}
	}
}
