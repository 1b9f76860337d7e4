package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/lint"
	"github.com/gmtsim/gmt/internal/lint/linttest"
)

func TestNoRealTime(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRealTime, "norealtime")
}

func TestNoGlobalRand(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoGlobalRand, "noglobalrand")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.MapOrder, "maporder")
}

func TestNoGoroutine(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoGoroutine, "nogoroutine")
}

// TestSuppression checks //lint:ignore semantics through the driver: a
// reasoned directive suppresses on its own line and the line below; a
// reasonless directive is inert.
func TestSuppression(t *testing.T) {
	fset, pkg := linttest.Load(t, "testdata", "suppressed")
	findings, err := lint.RunAll(fset, []*lint.Package{pkg}, lint.RunConfig{Analyzers: []*lint.Analyzer{lint.NoGlobalRand}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 surviving findings (reasonless directive + unsuppressed), got %d: %v",
			len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != "noglobalrand" {
			t.Errorf("unexpected analyzer %q", f.Analyzer)
		}
	}
}

// TestScope checks that RunAll's scope callback gates analyzers per
// package.
func TestScope(t *testing.T) {
	fset, pkg := linttest.Load(t, "testdata", "noglobalrand")
	none := func(analyzer, path string) bool { return false }
	findings, err := lint.RunAll(fset, []*lint.Package{pkg}, lint.RunConfig{Analyzers: lint.All(), Scope: none})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("scope=false must drop all findings, got %v", findings)
	}
}

// TestLoaderLoadsModule loads the enclosing module from source and
// checks that the simulator packages type-check cleanly — the same path
// cmd/gmtlint takes.
func TestLoaderLoadsModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		seen[strings.TrimPrefix(strings.TrimPrefix(p.Path, loader.Module), "/")] = true
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	for _, want := range []string{"", "internal/sim", "internal/core", "internal/tier", "cmd/gmtlint"} {
		if !seen[want] {
			t.Errorf("loader did not find package %q (got %d packages)", want, len(pkgs))
		}
	}
}

// TestModuleClean runs the full two-phase suite over the enclosing
// module exactly as cmd/gmtlint does and requires zero findings. This
// pins the tree's lint-clean state — in particular that the hot paths
// (//gmt:hotpath in core, tier, gpu, sim) carry no statically reachable
// allocation sites and that every //lint:ignore directive still earns
// its keep.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	coll := &lint.Collector{
		Fset: loader.Fset(),
		Within: func(path string) bool {
			return path == loader.Module || strings.HasPrefix(path, loader.Module+"/")
		},
	}
	var facts []*lint.PackageFacts
	for _, p := range pkgs {
		facts = append(facts, coll.Package(p))
	}
	findings, err := lint.RunAll(loader.Fset(), pkgs, lint.RunConfig{
		Analyzers:        lint.All(),
		ProgramAnalyzers: lint.AllProgram(),
		Program:          lint.BuildProgram(facts),
		Scope:            lint.DefaultScope(loader.Module),
		DetRoot:          lint.DefaultDetRoot(loader.Module),
		ServeRoot:        lint.DefaultServeRoot(loader.Module),
		Hygiene:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
	}
}
