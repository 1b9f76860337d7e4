package lint_test

import (
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/lint"
	"github.com/gmtsim/gmt/internal/lint/linttest"
)

// TestDetFlow checks the three cross-package propagation shapes against
// the detroot/dethelper fixture pair: a direct call, a function-value
// reference, and an interface method dispatch, each reported with the
// full root→violation chain.
func TestDetFlow(t *testing.T) {
	linttest.RunProgram(t, "testdata",
		[]*lint.ProgramAnalyzer{lint.DetFlow}, "detroot")
}

func TestCtxFlow(t *testing.T) {
	linttest.RunProgram(t, "testdata",
		[]*lint.ProgramAnalyzer{lint.CtxFlow}, "ctxroot")
}

func TestHotAlloc(t *testing.T) {
	linttest.RunProgram(t, "testdata",
		[]*lint.ProgramAnalyzer{lint.HotAlloc}, "hotallocfix")
}

// TestDetFlowCatchesWhatPerPackageMisses is the paired blind-spot test:
// the per-package analyzers, scoped to the root package exactly as the
// phase-1-only linter ran them, find nothing in detroot — every
// violation is one call hop away in dethelper. The whole-program pass
// over the same code reports all three, with chains rooted in detroot.
func TestDetFlowCatchesWhatPerPackageMisses(t *testing.T) {
	fset, pkgs := linttest.LoadProgram(t, "testdata", "detroot", "dethelper")
	var root *lint.Package
	for _, p := range pkgs {
		if p.Path == "detroot" {
			root = p
		}
	}
	perPkg, err := lint.RunAll(fset, []*lint.Package{root}, lint.RunConfig{Analyzers: lint.All()})
	if err != nil {
		t.Fatal(err)
	}
	if len(perPkg) != 0 {
		t.Fatalf("per-package analyzers should be blind to cross-package taint, got %v", perPkg)
	}
	program := linttest.Facts(fset, pkgs)
	findings, err := lint.RunAll(fset, pkgs, lint.RunConfig{
		ProgramAnalyzers: []*lint.ProgramAnalyzer{lint.DetFlow},
		Program:          program,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("want 3 cross-package findings, got %d: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != "detflow" {
			t.Errorf("unexpected analyzer %q", f.Analyzer)
		}
		if len(f.Chain) < 2 {
			t.Errorf("finding at %s has no multi-hop chain: %v", f.Position, f.Chain)
			continue
		}
		if !strings.HasPrefix(f.Chain[0].Name, "detroot.") {
			t.Errorf("chain should be rooted in detroot, got %q", f.Chain[0].Name)
		}
		if f.Chain[0].File == "" || f.Chain[0].Line == 0 {
			t.Errorf("chain step missing position: %+v", f.Chain[0])
		}
	}
}

// TestHygiene checks //lint:ignore hygiene through RunAll: reasonless
// and unknown-analyzer directives are inert (the underlying finding
// survives) and reported by badignore; a well-formed directive that
// suppresses nothing is reported by unusedignore.
func TestHygiene(t *testing.T) {
	fset, pkg := linttest.Load(t, "testdata", "hygiene")
	findings, err := lint.RunAll(fset, []*lint.Package{pkg}, lint.RunConfig{
		Analyzers: lint.All(),
		Hygiene:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, f := range findings {
		got[f.Analyzer]++
	}
	want := map[string]int{
		lint.BadIgnoreName:    2, // reasonless + unknown analyzer
		"norealtime":          2, // the findings those inert directives failed to suppress
		lint.UnusedIgnoreName: 1, // the stale directive
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("want %d %s finding(s), got %d (all: %v)", n, a, got[a], findings)
		}
	}
	if len(findings) != 5 {
		t.Errorf("want 5 findings total, got %d: %v", len(findings), findings)
	}
	var sawMissingReason, sawUnknown bool
	for _, f := range findings {
		if f.Analyzer != lint.BadIgnoreName {
			continue
		}
		if strings.Contains(f.Message, "missing reason") {
			sawMissingReason = true
		}
		if strings.Contains(f.Message, "unknown analyzer") {
			sawUnknown = true
		}
	}
	if !sawMissingReason || !sawUnknown {
		t.Errorf("badignore should distinguish missing-reason from unknown-analyzer: %v", findings)
	}
}
