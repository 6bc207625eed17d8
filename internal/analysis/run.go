package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// RunPackage applies one analyzer to one loaded package in isolation
// (fresh fact store, fresh suppressor) and returns its raw
// (unsuppressed) diagnostics, each stamped with the analyzer name. The
// fixture harness uses it; the multichecker driver is Run, which shares
// facts and suppressors across the whole package graph.
func RunPackage(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	facts := NewFactStore()
	facts.Begin(pkg.Path)
	return runPackage(a, pkg, NewSuppressor(pkg.Fset, pkg.Files), facts)
}

// runPackage applies one analyzer to one package with the run's shared
// suppressor and fact store.
func runPackage(a *Analyzer, pkg *Package, sup *Suppressor, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report: func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		},
		suppress: sup,
		facts:    facts,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
	}
	return diags, nil
}

// StaleAllow is one `//lint:allow` directive that suppressed nothing
// during a full run: the code it excused was fixed or moved, so the
// comment is dead and should be removed (`c2vet -suppressions`).
type StaleAllow struct {
	// Pos is the directive's position.
	Pos token.Pos
	// Analyzer is the name the directive tried to suppress.
	Analyzer string
	// Unknown marks a directive naming no analyzer in the active suite
	// (a typo, or a check that was since renamed).
	Unknown bool
}

// Audit is the account of a run's `//lint:allow` directives.
type Audit struct {
	// Live counts the directives that suppressed something.
	Live int
	// Stale lists the directives that suppressed nothing, by position.
	Stale []StaleAllow
}

// Run applies every analyzer to every package in load order — which is
// `go list -deps` dependency order, so fact-exporting analyzers see
// their dependencies' facts — honours `//lint:allow` suppressions, and
// returns the surviving diagnostics sorted by position plus the audit of
// the allow directives.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, Audit, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	facts := NewFactStore()
	var all []Diagnostic
	var audit Audit
	for _, pkg := range pkgs {
		sup := NewSuppressor(pkg.Fset, pkg.Files)
		facts.Begin(pkg.Path)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			diags, err := runPackage(a, pkg, sup, facts)
			if err != nil {
				return nil, Audit{}, err
			}
			pkgDiags = append(pkgDiags, diags...)
		}
		all = append(all, sup.Filter(pkgDiags)...)
		if err := facts.Seal(); err != nil {
			return nil, Audit{}, err
		}
		for _, d := range sup.Directives() {
			if d.Used() {
				audit.Live++
			} else {
				audit.Stale = append(audit.Stale, StaleAllow{Pos: d.Pos, Analyzer: d.Analyzer, Unknown: !known[d.Analyzer]})
			}
		}
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		sortDiagnostics(fset, all)
		stale := audit.Stale
		sort.SliceStable(stale, func(i, j int) bool {
			return positionLess(fset.Position(stale[i].Pos), fset.Position(stale[j].Pos))
		})
	}
	return all, audit, nil
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer
// and message — a total order, so equal runs render byte-equal output
// across packages and analyzers (CI diffs stay stable).
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if !positionsEqual(pi, pj) {
			return positionLess(pi, pj)
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

func positionsEqual(a, b token.Position) bool {
	return a.Filename == b.Filename && a.Line == b.Line && a.Column == b.Column
}

func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// Print renders diagnostics as file:line:col: [analyzer] message, one per
// line, using the file set of the packages they came from.
func Print(w io.Writer, pkgs []*Package, diags []Diagnostic) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
	}
}

// PrintStale renders the suppression audit, one dead allow per line.
func PrintStale(w io.Writer, pkgs []*Package, stale []StaleAllow) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	for _, s := range stale {
		pos := fset.Position(s.Pos)
		why := "suppresses nothing"
		if s.Unknown {
			why = "names no active analyzer"
		}
		fmt.Fprintf(w, "%s: [suppressions] stale //lint:allow %s: %s; remove it\n", pos, s.Analyzer, why)
	}
}
