// Command gmtlint is the determinism & invariant lint suite for the GMT
// simulator: a multichecker enforcing the contract that makes seeded
// runs bit-identical (see HACKING.md, "Determinism rules").
//
// Usage:
//
//	gmtlint [flags] [package pattern ...]
//
// Patterns are ./...-style module-relative patterns (default ./...).
// Exit status: 0 clean (or every finding baselined), 1 new findings,
// 2 load/usage errors.
//
// Flags:
//
//	-json           machine-readable output (gmtlint/v1)
//	-explain        print each finding's root→violation call chain
//	-baseline FILE  baseline file (default lint.baseline.json at the
//	                module root, when present); baselined findings are
//	                reported but do not fail the run
//	-writebaseline  rewrite the baseline file with the current findings
//	-factcache DIR  cache per-package phase-1 facts keyed by source hash
//	-version        print version and exit
//
// The analysis is two-phase: per-package analyzers (norealtime,
// noglobalrand, maporder, nogoroutine) run package by package, then the
// whole-program analyzers (detflow, ctxflow, hotalloc) propagate facts
// over the cross-package call graph, so a
// time.Now buried three packages away from an engine callback is still
// caught — and reported with the full call chain.
//
// Suppress an individual false positive with a trailing or
// preceding-line comment naming a known analyzer and carrying a
// mandatory reason:
//
//	//lint:ignore maporder counters are order-independent
//
// Malformed directives and directives that suppress nothing are
// themselves reported (badignore, unusedignore).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/gmtsim/gmt/internal/buildinfo"
	"github.com/gmtsim/gmt/internal/lint"
)

const (
	outputVersion   = "gmtlint/v1"
	baselineVersion = "gmtlint-baseline/v1"
	defaultBaseline = "lint.baseline.json"
)

type jsonFinding struct {
	Analyzer  string           `json:"analyzer"`
	File      string           `json:"file"`
	Line      int              `json:"line"`
	Col       int              `json:"col"`
	Message   string           `json:"message"`
	Chain     []lint.ChainStep `json:"chain,omitempty"`
	Baselined bool             `json:"baselined,omitempty"`
}

type jsonOutput struct {
	Version  string        `json:"version"`
	Findings []jsonFinding `json:"findings"`
}

type baselineFile struct {
	Version string `json:"version"`
	// Findings are stable keys "analyzer|file|message" (no line numbers,
	// so unrelated edits above a grandfathered finding don't churn it).
	Findings []string `json:"findings"`
}

func main() {
	var (
		jsonOut       = flag.Bool("json", false, "machine-readable JSON output")
		explain       = flag.Bool("explain", false, "print root→violation call chains")
		baselinePath  = flag.String("baseline", "", "baseline file (default lint.baseline.json at module root, when present)")
		writeBaseline = flag.Bool("writebaseline", false, "rewrite the baseline file with the current findings")
		factCache     = flag.String("factcache", "", "directory for cached per-package facts")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("gmtlint", buildinfo.Version())
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fail(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fail(err)
	}
	var selected []*lint.Package
	loadErrors := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "gmtlint: %s: type error: %v\n", p.Path, terr)
			loadErrors = true
		}
		if matchesAny(patterns, loader.Module, p.Path) {
			selected = append(selected, p)
		}
	}
	if loadErrors {
		os.Exit(2)
	}

	// Phase 1 runs over the whole module regardless of the selected
	// patterns: cross-package propagation needs the full call graph.
	// Findings are filtered back to the selected packages.
	program := buildProgram(loader, pkgs, *factCache)

	findings, err := lint.RunAll(loader.Fset(), selected, lint.RunConfig{
		Analyzers:        lint.All(),
		ProgramAnalyzers: lint.AllProgram(),
		Program:          program,
		Scope:            lint.DefaultScope(loader.Module),
		DetRoot:          lint.DefaultDetRoot(loader.Module),
		ServeRoot:        lint.DefaultServeRoot(loader.Module),
		Hygiene:          true,
	})
	if err != nil {
		fail(err)
	}

	blPath := *baselinePath
	if blPath == "" {
		if p := filepath.Join(root, defaultBaseline); fileExists(p) {
			blPath = p
		}
	}
	if *writeBaseline {
		if blPath == "" {
			blPath = filepath.Join(root, defaultBaseline)
		}
		if err := saveBaseline(blPath, root, findings); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "gmtlint: wrote %d finding(s) to %s\n", len(findings), blPath)
		return
	}
	baselined := make(map[string]bool)
	if blPath != "" {
		bl, err := loadBaseline(blPath)
		if err != nil {
			fail(err)
		}
		for _, key := range bl.Findings {
			baselined[key] = true
		}
	}

	newCount := 0
	out := jsonOutput{Version: outputVersion}
	for _, f := range findings {
		rel := relPath(root, f.Position.Filename)
		isOld := baselined[baselineKey(f.Analyzer, rel, f.Message)]
		if !isOld {
			newCount++
		}
		if *jsonOut {
			out.Findings = append(out.Findings, jsonFinding{
				Analyzer:  f.Analyzer,
				File:      rel,
				Line:      f.Position.Line,
				Col:       f.Position.Column,
				Message:   f.Message,
				Chain:     f.Chain,
				Baselined: isOld,
			})
			continue
		}
		suffix := ""
		if isOld {
			suffix = " (baselined)"
		}
		fmt.Printf("%s:%d:%d: [%s] %s%s\n", rel, f.Position.Line, f.Position.Column, f.Analyzer, f.Message, suffix)
		if *explain {
			for _, step := range f.Chain {
				fmt.Printf("\t%s\n\t\t%s:%d\n", step.Name, relPath(root, step.File), step.Line)
			}
		}
	}
	if *jsonOut {
		if out.Findings == nil {
			out.Findings = []jsonFinding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	}
	if newCount > 0 {
		fmt.Fprintf(os.Stderr, "gmtlint: %d new finding(s), %d baselined\n", newCount, len(findings)-newCount)
		os.Exit(1)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "gmtlint: %d baselined finding(s), none new\n", n)
	}
}

// buildProgram collects (or loads cached) phase-1 facts for every
// package and assembles the whole-program index.
func buildProgram(loader *lint.Loader, pkgs []*lint.Package, cacheDir string) *lint.Program {
	module := loader.Module
	coll := &lint.Collector{
		Fset: loader.Fset(),
		Within: func(path string) bool {
			return path == module || strings.HasPrefix(path, module+"/")
		},
	}
	var all []*lint.PackageFacts
	for _, pkg := range pkgs {
		all = append(all, packageFacts(coll, pkg, cacheDir))
	}
	return lint.BuildProgram(all)
}

func packageFacts(coll *lint.Collector, pkg *lint.Package, cacheDir string) *lint.PackageFacts {
	if cacheDir == "" {
		return coll.Package(pkg)
	}
	sources := make(map[string][]byte)
	for _, f := range pkg.Files {
		name := coll.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			return coll.Package(pkg) // cannot fingerprint: skip the cache
		}
		sources[name] = data
	}
	fp := lint.FactsFingerprint(sources)
	cachePath := filepath.Join(cacheDir, strings.ReplaceAll(pkg.Path, "/", "_")+"-"+fp+".json")
	if data, err := os.ReadFile(cachePath); err == nil {
		if pf, err := lint.DecodeFacts(data); err == nil && pf.Path == pkg.Path {
			return pf
		}
	}
	pf := coll.Package(pkg)
	if data, err := pf.Encode(); err == nil {
		if err := os.MkdirAll(cacheDir, 0o755); err == nil {
			_ = os.WriteFile(cachePath, data, 0o644)
		}
	}
	return pf
}

func baselineKey(analyzer, relFile, message string) string {
	return analyzer + "|" + relFile + "|" + message
}

func loadBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gmtlint: reading baseline: %w", err)
	}
	var bl baselineFile
	if err := json.Unmarshal(data, &bl); err != nil {
		return nil, fmt.Errorf("gmtlint: parsing baseline %s: %w", path, err)
	}
	if bl.Version != baselineVersion {
		return nil, fmt.Errorf("gmtlint: baseline %s has version %q, want %q", path, bl.Version, baselineVersion)
	}
	return &bl, nil
}

func saveBaseline(path, root string, findings []lint.Finding) error {
	bl := baselineFile{Version: baselineVersion, Findings: []string{}}
	seen := make(map[string]bool)
	for _, f := range findings {
		key := baselineKey(f.Analyzer, relPath(root, f.Position.Filename), f.Message)
		if !seen[key] {
			seen[key] = true
			bl.Findings = append(bl.Findings, key)
		}
	}
	data, err := json.MarshalIndent(&bl, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// matchesAny reports whether the import path matches one of the
// ./...-style module-relative patterns.
func matchesAny(patterns []string, module, pkgPath string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, module), "/")
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == rel {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		}
	}
	return false
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("gmtlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
