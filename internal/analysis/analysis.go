// Package analysis is a stdlib-only static-analysis engine for the
// concurrency invariants this repository's correctness argument rests
// on (Theorem 3 of the paper and the hand-written discipline of the
// baseline lists). It provides a small analyzer framework — diagnostics
// with file:line positions, a per-package runner, and comment-based
// suppression — plus four analyzers tuned to this codebase:
//
//   - locksafe: every successful trylock acquisition is released on
//     every path through the acquiring function (see locksafe.go);
//   - benchhygiene: benchmarks call b.ReportAllocs and b.ResetTimer
//     after setup (see benchhygiene.go);
//   - hotalloc: no hidden heap allocation (&T{...}, new, capturing
//     closures) inside traversal/validation hot-path functions (see
//     hotalloc.go);
//   - lockorder: node locks are acquired in ascending list position —
//     prev before curr (see lockorder.go).
//
// Each stays because it caught a seeded violation that no other check
// of scripts/check.sh caught, or found a real one (DESIGN.md §6).
//
// The lock analyzers are interprocedural: a whole-program pass
// (interproc.go) infers per-function summaries — which lock slots a
// helper acquires or releases — and a shared symbolic executor
// (exec.go) applies those summaries at call sites, so helper contracts
// like lockNextAt's returns-true-holding are verified where they are
// consumed instead of suppressed where they are produced.
//
// The engine deliberately uses only go/ast, go/parser, go/types and
// go/importer (plus `go list` for package metadata): the build
// environment is offline and must not pull golang.org/x/tools.
//
// # Suppression
//
// A finding that is intentional — e.g. the value-aware try-lock
// helpers in internal/core return to their caller with the lock
// deliberately held — is silenced with a justification comment either
// on the flagged line or on the line directly above it:
//
//	//lint:ignore locksafe lock intentionally escapes to the caller
//
// The analyzer name may be a comma-separated list. A reason is
// mandatory; a bare //lint:ignore is itself reported, and so is a
// stale directive — one whose named analyzers all ran but produced no
// finding for it to suppress. A whole file is exempted from one
// analyzer with:
//
//	//lint:file-ignore locksafe hand-over-hand locking is out of scope
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one finding, positioned for clickable file:line
// output.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// An Analyzer is one invariant checker. Run inspects the package held
// by the Pass and reports findings through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass carries one analyzer over one type-checked package. Prog is
// the whole-program view (call-graph summaries and consumed contracts)
// shared by every pass of one Run; it is nil only in unit-test
// scaffolding.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string
	Prog       *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockSafe, BenchHygiene, HotAlloc, LockOrder}
}

// Run applies every analyzer to every package, filters suppressed
// findings, and returns the survivors sorted by position.
func Run(pkgs []*Pkg, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	active := make(map[string]bool)
	for _, a := range analyzers {
		active[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ImportPath: pkg.ImportPath,
				Prog:       prog,
				diags:      &diags,
			}
			a.Run(pass)
		}
		diags = append(diags, suppress(pkg, diags[:0:0])...)
		diags = filterSuppressed(pkg, diags, active)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// A suppression is one parsed //lint:ignore or //lint:file-ignore
// directive.
type suppression struct {
	analyzers map[string]bool // nil means malformed
	line      int             // line the directive occupies
	fileWide  bool
	file      string
}

const (
	ignorePrefix     = "//lint:ignore"
	fileIgnorePrefix = "//lint:file-ignore"
)

// parseSuppressions extracts the lint directives of one file.
// Malformed directives (no analyzer list or no reason) are returned
// with a nil analyzer set so the runner can report them.
func parseSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			var rest string
			fileWide := false
			switch {
			case strings.HasPrefix(text, fileIgnorePrefix):
				rest = text[len(fileIgnorePrefix):]
				fileWide = true
			case strings.HasPrefix(text, ignorePrefix):
				rest = text[len(ignorePrefix):]
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			s := suppression{line: pos.Line, fileWide: fileWide, file: pos.Filename}
			fields := strings.Fields(rest)
			if len(fields) >= 2 { // analyzer list + at least one reason word
				s.analyzers = make(map[string]bool)
				for _, name := range strings.Split(fields[0], ",") {
					s.analyzers[name] = true
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// suppress reports malformed lint directives as findings of the
// pseudo-analyzer "lint".
func suppress(pkg *Pkg, diags []Diagnostic) []Diagnostic {
	for _, f := range pkg.Files {
		for _, s := range parseSuppressions(pkg.Fset, f) {
			if s.analyzers == nil {
				diags = append(diags, Diagnostic{
					Analyzer: "lint",
					Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
					Message:  "malformed suppression: want //lint:ignore <analyzer[,analyzer]> <reason>",
				})
			}
		}
	}
	return diags
}

// filterSuppressed drops diagnostics covered by a well-formed
// directive on the same line or the line directly above — and reports
// the inverse: a line directive that names only active analyzers but
// matched no finding is itself stale, an invariant that quietly
// stopped needing its exception. Stale checking is restricted to the
// active set so a partial run (-a locksafe) does not flag directives
// it never gave a chance to match; file-wide directives are policy
// statements and exempt.
func filterSuppressed(pkg *Pkg, diags []Diagnostic, active map[string]bool) []Diagnostic {
	type key struct {
		file string
		line int
	}
	var supps []suppression
	lineSupp := make(map[key]map[string]bool)
	fileSupp := make(map[string]map[string]bool)
	for _, f := range pkg.Files {
		for _, s := range parseSuppressions(pkg.Fset, f) {
			if s.analyzers == nil {
				continue
			}
			supps = append(supps, s)
			if s.fileWide {
				m := fileSupp[s.file]
				if m == nil {
					m = make(map[string]bool)
					fileSupp[s.file] = m
				}
				for a := range s.analyzers {
					m[a] = true
				}
				continue
			}
			m := lineSupp[key{s.file, s.line}]
			if m == nil {
				m = make(map[string]bool)
				lineSupp[key{s.file, s.line}] = m
			}
			for a := range s.analyzers {
				m[a] = true
			}
		}
	}
	if len(lineSupp) == 0 && len(fileSupp) == 0 {
		return diags
	}
	used := make(map[key]map[string]bool)
	markUsed := func(k key, analyzer string) {
		if lineSupp[k][analyzer] {
			if used[k] == nil {
				used[k] = make(map[string]bool)
			}
			used[k][analyzer] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if fileSupp[d.Pos.Filename][d.Analyzer] {
			continue
		}
		// A directive suppresses findings on its own line and on the
		// line below it (comment-above style).
		same := key{d.Pos.Filename, d.Pos.Line}
		above := key{d.Pos.Filename, d.Pos.Line - 1}
		if lineSupp[same][d.Analyzer] || lineSupp[above][d.Analyzer] {
			markUsed(same, d.Analyzer)
			markUsed(above, d.Analyzer)
			continue
		}
		kept = append(kept, d)
	}
	for _, s := range supps {
		if s.fileWide {
			continue
		}
		allActive, anyUsed := true, false
		for a := range s.analyzers {
			if !active[a] {
				allActive = false
			}
			if used[key{s.file, s.line}][a] {
				anyUsed = true
			}
		}
		if allActive && !anyUsed {
			kept = append(kept, Diagnostic{
				Analyzer: "lint",
				Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
				Message:  "stale suppression: no finding here for the named analyzers; remove the directive or re-justify it",
			})
		}
	}
	return kept
}
