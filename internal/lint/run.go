package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Names of the //lint:ignore hygiene checks. They are not analyzers you
// can run; they are emitted by RunAll itself when Hygiene is enabled.
const (
	// BadIgnoreName flags a //lint:ignore directive that is malformed:
	// it names an unknown analyzer or omits the mandatory reason.
	BadIgnoreName = "badignore"
	// UnusedIgnoreName flags a well-formed directive that suppressed
	// nothing, so stale suppressions cannot accumulate.
	UnusedIgnoreName = "unusedignore"
)

// Finding is one diagnostic resolved to a file position.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"-"`
	Message  string         `json:"message"`
	// Chain is the root→violation call path for whole-program findings
	// and for per-package findings whose enclosing function is reachable
	// from a determinism root.
	Chain []ChainStep `json:"chain,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// RunConfig configures one RunAll invocation.
type RunConfig struct {
	// Analyzers are the per-package checks to run (nil: none).
	Analyzers []*Analyzer
	// ProgramAnalyzers are the whole-program checks to run (nil: none);
	// they require Program.
	ProgramAnalyzers []*ProgramAnalyzer
	// Program is the phase-2 index. It may cover more packages than are
	// being linted (the whole module) — program findings are filtered to
	// the selected packages by position.
	Program *Program
	// Scope filters analyzers by name per package; nil means every
	// analyzer applies everywhere.
	Scope func(analyzer, pkgPath string) bool
	// DetRoot/ServeRoot classify root packages for the program
	// analyzers and for the call-chain retrofit on per-package findings.
	DetRoot   func(pkgPath string) bool
	ServeRoot func(pkgPath string) bool
	// Hygiene enables //lint:ignore directive checking (badignore,
	// unusedignore).
	Hygiene bool
}

// RunAll applies per-package and whole-program analyzers to the
// selected packages, honoring //lint:ignore suppression. Findings come
// back sorted by file/line/column/analyzer and deduplicated.
func RunAll(fset *token.FileSet, pkgs []*Package, cfg RunConfig) ([]Finding, error) {
	known := KnownAnalyzerNames()
	dirs := collectDirectives(fset, pkgs, known)
	fileToPkg := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fileToPkg[fset.Position(f.Pos()).Filename] = pkg.Path
		}
	}
	inScope := func(analyzer, pkgPath string) bool {
		return cfg.Scope == nil || cfg.Scope(analyzer, pkgPath)
	}

	var findings []Finding

	// Per-package analyzers.
	for _, pkg := range pkgs {
		for _, a := range cfg.Analyzers {
			if !inScope(a.Name, pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if dirs.suppresses(name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: name, Position: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	// Call-chain retrofit: when the whole-program index is available,
	// per-package findings inside functions reachable from a determinism
	// root gain the root→function call path.
	if cfg.Program != nil && cfg.DetRoot != nil {
		reach := detReach(cfg.Program, cfg.DetRoot)
		for i := range findings {
			f := &findings[i]
			ff := cfg.Program.FuncAt(f.Position.Filename, f.Position.Offset)
			if ff == nil {
				continue
			}
			entry, ok := reach[ff.ID]
			if !ok || entry.Depth == 0 {
				continue
			}
			f.Chain = cfg.Program.Chain(reach, ff.ID)
			f.Message += "; call path: " + FormatChain(f.Chain)
		}
	}

	// Whole-program analyzers.
	if cfg.Program != nil {
		for _, a := range cfg.ProgramAnalyzers {
			name := a.Name
			pass := &ProgramPass{
				Analyzer:  a,
				Program:   cfg.Program,
				DetRoot:   cfg.DetRoot,
				ServeRoot: cfg.ServeRoot,
			}
			pass.Report = func(d ProgramDiagnostic) {
				pkgPath, ok := fileToPkg[d.Pos.Filename]
				if !ok {
					return // outside the selected packages
				}
				if !inScope(name, pkgPath) {
					return
				}
				if dirs.suppresses(name, d.Pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: name, Position: d.Pos, Message: d.Message, Chain: d.Chain})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
			}
		}
	}

	// Directive hygiene.
	if cfg.Hygiene {
		for _, d := range dirs.all {
			pkgPath := fileToPkg[d.pos.Filename]
			switch {
			case d.bad != "":
				findings = append(findings, Finding{
					Analyzer: BadIgnoreName,
					Position: d.pos,
					Message:  "malformed //lint:ignore directive: " + d.bad,
				})
			case !d.used && anyInScope(d.names, pkgPath, inScope):
				findings = append(findings, Finding{
					Analyzer: UnusedIgnoreName,
					Position: d.pos,
					Message: fmt.Sprintf("//lint:ignore %s directive suppresses nothing; remove it",
						strings.Join(d.names, ",")),
				})
			}
		}
	}

	sortFindings(findings)
	return dedupe(findings), nil
}

func anyInScope(names []string, pkgPath string, inScope func(string, string) bool) bool {
	for _, n := range names {
		if inScope(n, pkgPath) {
			return true
		}
	}
	return false
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupe collapses findings that agree on position, analyzer, and
// message (the same violation surfaced through multiple load paths).
// The input must be sorted.
func dedupe(findings []Finding) []Finding {
	out := findings[:0]
	for i, f := range findings {
		if i > 0 {
			p := out[len(out)-1]
			if p.Analyzer == f.Analyzer && p.Message == f.Message &&
				p.Position.Filename == f.Position.Filename &&
				p.Position.Line == f.Position.Line && p.Position.Column == f.Position.Column {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// detReach computes the determinism-root reachability used by the chain
// retrofit (same roots as detflow).
func detReach(p *Program, detRoot func(string) bool) map[FuncID]ReachEntry {
	var roots []FuncID
	for _, id := range p.SortedIDs() {
		f := p.Funcs[id]
		if f.Flags&FactDetRoot != 0 || detRoot(f.Pkg) {
			roots = append(roots, id)
		}
	}
	return p.Reach(roots, nil)
}

// directive is one //lint:ignore comment. A well-formed directive reads
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// and suppresses the named analyzers on its own line (trailing comment)
// and on the line immediately below (comment-above style). The reason
// is mandatory and the analyzers must be known, so suppressions stay
// auditable; malformed directives suppress nothing and are themselves
// reported when hygiene is on.
type directive struct {
	pos   token.Position
	names []string
	used  bool
	bad   string // non-empty: why the directive is malformed
}

type directiveIndex struct {
	all    []*directive
	byLine map[string]map[int][]*directive // filename -> line -> directives
}

func (ix *directiveIndex) suppresses(analyzer string, pos token.Position) bool {
	lines := ix.byLine[pos.Filename]
	hit := false
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[l] {
			if d.bad != "" {
				continue
			}
			for _, name := range d.names {
				if name == analyzer {
					d.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

func collectDirectives(fset *token.FileSet, pkgs []*Package, known map[string]bool) *directiveIndex {
	ix := &directiveIndex{byLine: make(map[string]map[int][]*directive)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					d := &directive{pos: fset.Position(c.Pos())}
					fields := strings.Fields(text)
					switch {
					case len(fields) == 0:
						d.bad = "missing analyzer name and reason"
					case len(fields) == 1:
						d.names = splitNames(fields[0])
						d.bad = "missing reason (write //lint:ignore <analyzer> <why>)"
					default:
						d.names = splitNames(fields[0])
						for _, n := range d.names {
							if !known[n] {
								d.bad = fmt.Sprintf("unknown analyzer %q", n)
								break
							}
						}
					}
					ix.all = append(ix.all, d)
					lines := ix.byLine[d.pos.Filename]
					if lines == nil {
						lines = make(map[int][]*directive)
						ix.byLine[d.pos.Filename] = lines
					}
					lines[d.pos.Line] = append(lines[d.pos.Line], d)
				}
			}
		}
	}
	return ix
}

func splitNames(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}
