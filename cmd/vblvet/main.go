// Command vblvet runs this repository's concurrency-invariant static
// analyzers (internal/analysis) over a set of Go packages and reports
// findings as clickable file:line:col diagnostics.
//
// Usage:
//
//	go run ./cmd/vblvet [-tests=false] [-a locksafe,lockorder] [packages...]
//
// With no package arguments it analyzes ./... . Exit status is 0 when
// no findings survive suppression, 1 when there are findings, and 2
// when loading or type-checking fails. See DESIGN.md ("Checked
// invariants") for what each analyzer enforces and how to suppress a
// justified false positive with //lint:ignore.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"listset/internal/analysis"
)

func main() {
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	only := flag.String("a", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vblvet [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the listset concurrency-invariant analyzers. Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "vblvet: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	pkgs, err := analysis.Load(flag.Args(), analysis.LoadOptions{Tests: *tests})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vblvet: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vblvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
